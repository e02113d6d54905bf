"""Fair allocation of a shared capacity among competing demands.

Used in two places:

* dividing a worker's time among the operator instances it runs
  (Timely-style round-robin scheduling), and
* dividing the free space of downstream queues among the parallel
  instances of an upstream operator within one tick — without fairness,
  whichever instance happens to be processed first grabs the space,
  systematically starving the last instance and distorting the
  backpressure limit.
"""

# repro: equivalence-sensitive — scalar and batch water-fill must agree bit
# for bit (REPRO4xx rules enforce sequential reductions here).
from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np
import numpy.typing as npt

from repro.errors import EngineError

#: A float64 array: one value per operator instance.
FloatArray = npt.NDArray[np.float64]


#: Below this many demands the batch water-fill runs the scalar loop:
#: per-call numpy overhead outweighs the array arithmetic.
SCALAR_BELOW = 16


def fair_allocate(total: float, desires: Sequence[float]) -> List[float]:
    """Split ``total`` units among ``desires`` by water-filling.

    Every demand receives at most an equal share of what remains; shares
    unused by small demands are redistributed to larger ones. The result
    sums to ``min(total, sum(desires))`` and never exceeds any
    individual desire.

    ``total`` may be ``math.inf`` (everyone gets their full desire).
    """
    if total < 0:
        raise EngineError("total must be >= 0")
    clamped = [max(0.0, d) for d in desires]
    if math.isinf(total) or total >= _sequential_sum(clamped):
        return clamped
    return _water_fill(total, clamped)


def _sequential_sum(values: List[float]) -> float:
    """Left-to-right sum (``np.sum`` blocks pairwise and ``math.fsum``
    compensates; neither gives these bits)."""
    total = 0.0
    for value in values:
        total += value
    return total


def _water_fill(total: float, desires: List[float]) -> List[float]:
    """The water-filling rounds of :func:`fair_allocate` over
    non-negative ``desires`` that together exceed ``total``."""
    allocation = [0.0] * len(desires)
    remaining = total
    active = [i for i, d in enumerate(desires) if d > 0]
    while active and remaining > 1e-12:
        share = remaining / len(active)
        next_active = []
        progressed = False
        for index in active:
            want = desires[index] - allocation[index]
            grant = min(share, want)
            allocation[index] += grant
            remaining -= grant
            if grant < want - 1e-15:
                next_active.append(index)
            else:
                progressed = True
        if not progressed:
            # Every active demand took a full share: the remainder is
            # split evenly and we are done (avoids float residue loops).
            share = remaining / len(active)
            for index in active:
                allocation[index] += share
            remaining = 0.0
            break
        active = next_active
    return allocation


def fair_allocate_batch(total: float, desires: FloatArray) -> FloatArray:
    """Vectorized :func:`fair_allocate` over a float64 numpy array.

    Bit-identical to the scalar version by construction: every round
    computes the same per-index ``grant = min(share, want)`` (an exact
    element-wise operation), applies it in the same index order, and
    drains ``remaining`` with the same left-to-right sequence of
    subtractions. Fewer than :data:`SCALAR_BELOW` demands run the
    scalar rounds directly. The scalar and batch implementations are
    cross-checked by a hypothesis property in
    ``tests/engine/test_allocation.py``.
    """
    if total < 0:
        raise EngineError("total must be >= 0")
    clamped = np.maximum(0.0, desires, dtype=np.float64)
    if math.isinf(total):
        return clamped
    values = clamped.tolist()
    if total >= _sequential_sum(values):
        return clamped
    if len(values) < SCALAR_BELOW:
        return np.array(_water_fill(float(total), values))
    allocation = np.zeros_like(clamped)
    remaining = float(total)
    active = np.flatnonzero(clamped > 0)
    while active.size and remaining > 1e-12:
        share = remaining / active.size
        want = clamped[active] - allocation[active]
        grant = np.minimum(share, want)
        allocation[active] += grant
        for value in grant.tolist():
            remaining -= value
        unsatisfied = grant < want - 1e-15
        if bool(unsatisfied.all()):
            # Every active demand took a full share: the remainder is
            # split evenly and we are done (avoids float residue loops).
            share = remaining / active.size
            allocation[active] += share
            remaining = 0.0
            break
        active = active[unsatisfied]
    return allocation


__all__ = ["FloatArray", "fair_allocate", "fair_allocate_batch"]
