"""Capped exponential backoff, shared across retry layers.

Two layers retry with the same arithmetic: the control loop's
reconfiguration retry (:class:`repro.core.controller.RetryConfig`,
measured in policy intervals) and the campaign executor's cell retry
(:class:`repro.faults.executor.CellRetryPolicy`, measured in wall
seconds). Extracting the curve here keeps the two semantics from
drifting: attempt ``n`` always waits ``initial * base ** (n - 1)``,
capped at ``cap``.
"""

from __future__ import annotations

from typing import Optional


def capped_backoff(
    attempt: int, *, base: float, initial: float, cap: float
) -> float:
    """Wait after failed attempt ``attempt`` (1-based).

    The first retry waits ``initial``; each further retry multiplies
    the wait by ``base``, capped at ``cap``. Units are the caller's
    (policy intervals for the controller, seconds for the campaign
    executor).
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    return min(initial * base ** (attempt - 1), cap)


def invalid_backoff_reason(
    *,
    base: float,
    initial: float,
    cap: float,
    base_name: str = "backoff_base",
    initial_name: str = "initial_backoff",
    cap_name: str = "max_backoff",
) -> Optional[str]:
    """The first problem with a backoff parameter triple, or ``None``.

    Field names are injectable so each retry policy can report errors
    in its own vocabulary while sharing the validation rules.
    """
    if base < 1.0:
        return f"{base_name} must be >= 1"
    if initial <= 0:
        return f"{initial_name} must be > 0"
    if cap < initial:
        return f"{cap_name} must be >= {initial_name}"
    return None


__all__ = ["capped_backoff", "invalid_backoff_reason"]
