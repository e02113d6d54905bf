"""The engine's tick loop: struct-of-arrays state, one block per operator.

:class:`~repro.engine.simulator.Simulator` keeps the orchestration of a
tick (order, outages, telemetry, TickStats); :class:`VectorEngine` holds
the per-instance state and does every per-instance loop. The state is a
handful of flat float64 numpy arrays per deployed plan, and each
operator owns views into them:

* ``q_len``, ``q_pushed``, ``q_popped`` — shape ``(K, p)`` for an
  operator with ``K`` input ports (one per upstream edge) and ``p``
  instances. Column ``j`` of row ``k`` is instance ``j``'s port queue
  for upstream ``k``: its current length and the cumulative pushed /
  popped conservation counters of :class:`~repro.engine.buffers.Queue`.
  The plan-wide arrays are laid out operator by operator in topological
  order, port-major, so the invariant check is one pass per tick.
* ``fire_backlog`` and ``win_buffered`` — shape ``(p,)``, windowed
  operators' released-but-unprocessed and buffered records. Their
  plan-wide arrays use the metrics rows as index: topological operator
  order, instance index ascending (``PhysicalPlan.all_instances``).
* ``weights`` — shape ``(p,)``, the plan's input-partitioning weights
  for the operator (how upstream output is split across its instances).

Window state (:class:`~repro.dataflow.windowing.WindowState`) is held as
``win_buffered`` plus one shared fire clock (``win_next_fire`` /
``win_last_check``) per operator: every instance of a window operator is
created, reset, and fired with the same spec and the same virtual times,
so the scalar clocks advance in lockstep and only ``buffered`` varies
per instance. :meth:`VectorEngine.materialize_instances` rebuilds
per-instance objects (queues, window state machines) on demand.

Processing order within a tick is reverse topological, so when an
operator runs, none of its input queues has been touched yet this tick:
the queue totals taken at the start of the tick (in
:meth:`VectorEngine.estimate_demands`) are still exact for it.

**Numerical contract.** Outputs are frozen bit for bit by the committed
reference campaigns in ``tests/engine/engine_reference.json``, recorded
from the per-instance object loop this engine replaced. Every array
operation replays that loop's scalar float64 operations exactly:

* element-wise float64 arithmetic (`+`, `-`, `*`, `/`) is IEEE-754 and
  matches scalar arithmetic operation for operation;
* ``np.minimum`` / ``np.maximum`` argument order mirrors the scalar
  ``min`` / ``max`` calls (both return the first argument on ties);
  min/max reductions are order-free and safe;
* sums are sequential left-to-right loops over ``.tolist()`` (``np.sum``
  uses pairwise blocking and is *not* sequential), or element-wise adds
  port by port;
* queue pushes replay a sequential per-upstream-instance accumulation
  with ``np.cumsum`` over ``[base, amounts...]`` (cumsum is sequential
  by definition); columns where a bounded queue would clamp an
  individual push fall back to an exact scalar replay.

**Tick replay.** A tick whose inputs are byte-equal to the previous
tick's (:meth:`VectorEngine.repeats`) is not run again: its state
arrays would come out unchanged, so :meth:`VectorEngine.replay_tick`
only re-applies the previous tick's increments to the cumulative
counters, with the float operations the loop performs. See
``docs/engine.md`` for the predicate.
"""

# repro: equivalence-sensitive — outputs are frozen bit for bit; reductions
# here must stay sequential (REPRO4xx rules enforce this).
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.dataflow.operators import OperatorSpec
from repro.dataflow.physical import InstanceId, PhysicalPlan
from repro.dataflow.windowing import WindowState
from repro.engine.allocation import FloatArray, fair_allocate_batch
from repro.engine.buffers import Queue
from repro.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.simulator import Simulator

# Whole-array reductions as direct ufunc calls: ``ndarray.max()`` and
# friends add a Python-level wrapper, a measurable cost at a few calls
# per operator per tick on arrays of a few elements.
_array_max = np.maximum.reduce
_array_min = np.minimum.reduce
_array_any = np.logical_or.reduce

#: Packs a source's (rate, want) for bitwise comparison.
_pack_key = struct.Struct("dd").pack


@dataclass
class _Instance:
    """Read-only snapshot of one operator instance (see
    :meth:`VectorEngine.materialize_instances`).

    Input records arrive through per-port queues, one per upstream
    operator — as with Flink's per-channel network buffers, a flooding
    input fills its own buffers and backpressures its own producer
    without crowding out the other inputs of a join. Sources have no
    ports.
    """

    iid: InstanceId
    spec: OperatorSpec
    ports: Dict[str, Queue]
    window: Optional[WindowState] = None
    fire_backlog: float = 0.0

    @property
    def total_queue_length(self) -> float:
        """Records queued across all input ports."""
        total = 0.0
        for queue in self.ports.values():
            total += queue.length
        return total

    @property
    def max_fill_fraction(self) -> float:
        """Worst port occupancy (0 for unbounded/portless)."""
        if not self.ports:
            return 0.0
        return max(queue.fill_fraction for queue in self.ports.values())

    @property
    def pending_records(self) -> float:
        extra = self.fire_backlog
        if self.window is not None:
            extra += self.window.buffered
        return self.total_queue_length + extra


class _Route:
    """One edge of the deployed plan seen from its upstream operator:
    the downstream block, the port row the edge feeds, and scratch
    buffers for replaying the pushes of ``upstream`` instances.

    After a tick, the pushes it made (what
    :meth:`VectorEngine.replay_tick` adds to ``q_pushed``) are
    ``buf[1:]`` — or ``added`` for a single upstream instance — except
    in the ``clamped`` columns, which list what each push accepted."""

    __slots__ = (
        "dop",
        "k",
        "all_positive",
        "positive",
        "buf",
        "partials",
        "added",
        "clamped",
    )

    def __init__(self, dop: "_OpState", k: int, upstream: int) -> None:
        self.dop = dop
        self.k = k
        positive = dop.weights > 0
        self.all_positive = bool(positive.all())
        self.positive = positive
        # Row 0 holds a queue counter, rows 1.. the amounts each
        # upstream instance pushes; partials gets their running sums.
        shape = (upstream + 1, dop.parallelism)
        self.buf: FloatArray = np.empty(shape, dtype=np.float64)
        self.partials: FloatArray = np.empty(shape, dtype=np.float64)
        self.added: FloatArray = np.zeros(dop.parallelism)
        self.clamped: List[Tuple[int, List[float]]] = []


class _OpState:
    """Struct-of-arrays state of one operator's instances (views into
    the plan-wide arrays of :class:`VectorEngine`) plus the per-plan
    constants its tick work needs."""

    __slots__ = (
        "name",
        "spec",
        "parallelism",
        "ports",
        "port_index",
        "capacity",
        "q_len",
        "q_pushed",
        "q_popped",
        "fire_backlog",
        "win_buffered",
        "win_next_fire",
        "win_last_check",
        "weights",
        "row_start",
        "row_stop",
        "routes",
        "counters",
        "cost_base",
        "assign_base",
        "fire_base",
        "selectivity",
        "popped",
        "processed",
        "rate",
        "want",
        "fraction",
    )

    def __init__(
        self,
        name: str,
        spec: OperatorSpec,
        parallelism: int,
        ports: Tuple[str, ...],
        capacity: Optional[float],
        weights: Tuple[float, ...],
        row_start: int,
    ) -> None:
        self.name = name
        self.spec = spec
        self.parallelism = parallelism
        self.ports = ports
        self.port_index: Dict[str, int] = {
            port: k for k, port in enumerate(ports)
        }
        self.capacity = capacity
        self.weights: FloatArray = np.array(weights, dtype=np.float64)
        self.row_start = row_start
        self.row_stop = row_start + parallelism
        self.win_buffered: Optional[FloatArray] = None
        self.win_next_fire = 0.0
        self.win_last_check = 0.0
        self.routes: List[_Route] = []
        # This tick's pulled / pushed / busy-seconds rows (a view into
        # the plan-wide counters, recorded once per tick).
        self.counters: FloatArray = np.zeros((3, parallelism))
        self.cost_base = 0.0
        self.assign_base = 0.0
        self.fire_base = 0.0
        self.selectivity = spec.selectivity.ratio
        # The last tick's increments and inputs, for tick replay: the
        # records removed from each port (None when nothing was
        # popped), the per-instance records processed, a source's rate
        # and capped request, and a staggered window's release fraction.
        self.popped: Optional[FloatArray] = None
        self.processed: List[float] = []
        self.rate = 0.0
        self.want = 0.0
        self.fraction = 0.0

    def max_fill(self) -> float:
        """Worst port occupancy across instances (0 when unbounded or
        portless)."""
        if not self.ports or self.capacity is None:
            return 0.0
        return float(
            np.minimum(1.0, self.q_len / self.capacity).max()
        )


class VectorEngine:
    """The struct-of-arrays tick loop of
    :class:`~repro.engine.simulator.Simulator`.

    A friend object of the simulator: the simulator keeps the
    orchestration and delegates every per-instance loop here. All
    methods mutate the plan-wide arrays in place.
    """

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._graph = sim.graph
        self._ops: Dict[str, _OpState] = {}
        self._reverse_order: List[_OpState] = []
        self._bounded: List[_OpState] = []
        self._instances = 0
        # q_len, fire_backlog and win_buffered are views into one
        # array, so one ``tobytes`` snapshots a tick's starting state.
        self._state: FloatArray = np.zeros(1, dtype=np.float64)
        self._q_len: FloatArray = self._state
        self._q_pushed: FloatArray = np.zeros(0, dtype=np.float64)
        self._q_popped: FloatArray = np.zeros(0, dtype=np.float64)
        self._fire_backlog: FloatArray = np.zeros(0, dtype=np.float64)
        self._win_buffered: FloatArray = np.zeros(0, dtype=np.float64)
        self._counters: FloatArray = np.zeros((3, 0), dtype=np.float64)
        # Per port position k, the q_len index of every instance's port
        # k, or the always-zero trailing slot for instances with fewer
        # ports (see _queue_totals).
        self._port_gathers: List[npt.NDArray[np.intp]] = []
        # Queue totals per instance at the start of the current tick.
        self._tick_totals: FloatArray = np.zeros(0, dtype=np.float64)
        self._sources: List[_OpState] = []
        self._windows: List[_OpState] = []
        # Tick replay (see repeats): the previous active tick's starting
        # state and budgets, whether a window fired in the last loop
        # run, and that run's (emitted, desired, consumed).
        self._start_state: Optional[bytes] = None
        self._budgets: Dict[str, FloatArray] = {}
        self._fired = False
        self._result: Tuple[
            Dict[str, float], Dict[str, float], Dict[str, float]
        ] = ({}, {}, {})

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def deploy(self, plan: PhysicalPlan) -> None:
        """(Re)build array state for ``plan``, preserving in-flight
        records and window buffers: each operator's queued records (per
        port), window buffers and fire backlogs are summed across its
        old instances and redistributed by the new input weights."""
        sim = self._sim
        carried_ports: Dict[str, Dict[str, float]] = {}
        carried_window: Dict[str, Tuple[float, float]] = {}
        for name, op in self._ops.items():
            per_port: Dict[str, float] = {}
            for k, port in enumerate(op.ports):
                # Sequential per-instance sum.
                total = 0.0
                for value in op.q_len[k].tolist():
                    total += value
                per_port[port] = total
            carried_ports[name] = per_port
            buffered = 0.0
            if op.win_buffered is not None:
                for value in op.win_buffered.tolist():
                    buffered += value
            backlog = 0.0
            for value in op.fire_backlog.tolist():
                backlog += value
            carried_window[name] = (buffered, backlog)

        order = self._graph.topological_order()
        runtime = sim.runtime
        multiplier = sim._cost_multiplier()
        ops: Dict[str, _OpState] = {}
        slots = 0
        rows = 0
        for name in order:
            spec = self._graph.operator(name)
            parallelism = plan.parallelism_of(name)
            op = _OpState(
                name=name,
                spec=spec,
                parallelism=parallelism,
                ports=tuple(self._graph.upstream(name)),
                capacity=runtime.queue_capacity(spec, parallelism),
                weights=plan.input_weights(name),
                row_start=rows,
            )
            rows = op.row_stop
            slots += len(op.ports) * parallelism
            ops[name] = op
        state = np.zeros(slots + 1 + 2 * rows, dtype=np.float64)
        q_len = state[:slots + 1]
        q_pushed = np.zeros(slots, dtype=np.float64)
        q_popped = np.zeros(slots, dtype=np.float64)
        fire_backlog = state[slots + 1:slots + 1 + rows]
        win_buffered = state[slots + 1 + rows:]
        counters = np.zeros((3, rows), dtype=np.float64)
        max_ports = max((len(op.ports) for op in ops.values()), default=0)
        gathers = [
            np.full(rows, slots, dtype=np.intp) for _ in range(max_ports)
        ]
        offset = 0
        for name in order:
            op = ops[name]
            spec = op.spec
            p = op.parallelism
            width = len(op.ports) * p
            shape = (len(op.ports), p)
            op.q_len = q_len[offset:offset + width].reshape(shape)
            op.q_pushed = q_pushed[offset:offset + width].reshape(shape)
            op.q_popped = q_popped[offset:offset + width].reshape(shape)
            for k in range(len(op.ports)):
                gathers[k][op.row_start:op.row_stop] = np.arange(
                    offset + k * p, offset + (k + 1) * p
                )
            offset += width
            op.fire_backlog = fire_backlog[op.row_start:op.row_stop]
            op.counters = counters[:, op.row_start:op.row_stop]
            queued_by_port = carried_ports.get(name, {})
            buffered, backlog = carried_window.get(name, (0.0, 0.0))
            for k, port in enumerate(op.ports):
                # A redeploy force-pushes carried * weight into every
                # instance: length and pushed counter both start there.
                row = queued_by_port.get(port, 0.0) * op.weights
                op.q_len[k] = row
                op.q_pushed[k] = row
            op.fire_backlog[:] = backlog * op.weights
            costs = spec.costs
            if spec.is_source:
                op.cost_base = costs.base_cost * multiplier
            elif spec.window is not None:
                window = spec.window
                # One WindowState carries the fire-clock reset semantics
                # for the whole instance block (lockstep, see _OpState).
                clock = WindowState(spec=window)
                clock.reset(sim.time)
                op.win_buffered = win_buffered[op.row_start:op.row_stop]
                op.win_buffered[:] = buffered * op.weights
                op.win_next_fire = clock.next_fire
                op.win_last_check = clock._last_check
                coordination = 1.0 + costs.coordination_alpha * (p - 1)
                op.cost_base = coordination * multiplier
                op.assign_base = (
                    costs.base_cost + window.replication * window.assign_cost
                )
                op.fire_base = window.fire_cost
            else:
                cost = costs.effective_cost(p)
                if spec.rate_limit is not None:
                    cost = max(cost, 1.0 / spec.rate_limit)
                op.cost_base = cost * multiplier
        for name in order:
            ops[name].routes = [
                _Route(
                    ops[downstream],
                    ops[downstream].port_index[name],
                    ops[name].parallelism,
                )
                for downstream in self._graph.downstream(name)
            ]
        self._ops = ops
        self._reverse_order = list(reversed(ops.values()))
        self._bounded = [
            op for op in ops.values() if op.ports and op.capacity is not None
        ]
        self._sources = [op for op in ops.values() if op.spec.is_source]
        self._windows = [
            op for op in ops.values() if op.win_buffered is not None
        ]
        self._instances = rows
        self._state = state
        self._start_state = None
        self._q_len = q_len
        self._q_pushed = q_pushed
        self._q_popped = q_popped
        self._fire_backlog = fire_backlog
        self._win_buffered = win_buffered
        self._counters = counters
        self._port_gathers = gathers
        self._tick_totals = self._queue_totals()

    # ------------------------------------------------------------------
    # Costs
    # ------------------------------------------------------------------

    def _unit_cost(self, op: _OpState) -> float:
        """Per-record useful-time cost of regular (non-window)
        processing: coordination overhead, rate limit, instrumentation
        overhead, and this tick's cost noise."""
        return op.cost_base * self._sim._jitter[op.name]

    def _window_costs(self, op: _OpState) -> Tuple[float, float]:
        """(assign_cost_per_input_record, fire_cost_per_buffered_record)
        of a window operator this tick."""
        multiplier = op.cost_base * self._sim._jitter[op.name]
        return op.assign_base * multiplier, op.fire_base * multiplier

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def has_operator(self, name: str) -> bool:
        return name in self._ops

    def _queue_totals(self) -> FloatArray:
        """Records queued per instance (metrics-row order), summed
        across ports in port order: one gather and add per port
        position, portless instances reading the zero slot."""
        gathers = self._port_gathers
        if not gathers:
            return np.zeros(self._instances, dtype=np.float64)
        totals = self._q_len[gathers[0]]
        for gather in gathers[1:]:
            totals = totals + self._q_len[gather]
        return totals

    def _pending(self) -> List[float]:
        """Per-instance pending records (queued + fire backlog + window
        buffer), metrics-row order."""
        extra = self._fire_backlog + self._win_buffered
        pending: List[float] = (self._queue_totals() + extra).tolist()
        return pending

    def pending_by_operator(self) -> Dict[str, float]:
        """Pending records per operator, each a sequential sum over its
        instances, in topological order."""
        pending = self._pending()
        result: Dict[str, float] = {}
        for name, op in self._ops.items():
            total = 0.0
            for value in pending[op.row_start:op.row_stop]:
                total += value
            result[name] = total
        return result

    def queue_length(self, name: str) -> float:
        """Total pending records at an operator (all instances)."""
        op = self._ops[name]
        total = 0.0
        for value in self._pending()[op.row_start:op.row_stop]:
            total += value
        return total

    def total_queued(self) -> float:
        """Records pending anywhere inside the dataflow (one sequential
        sum over every instance)."""
        total = 0.0
        for value in self._pending():
            total += value
        return total

    def max_fill(self, name: str) -> float:
        return self._ops[name].max_fill()

    def backpressured(self) -> Tuple[str, ...]:
        """Operators with a bounded port at or above the runtime's
        backpressure threshold, in topological order. Division by the
        capacity is monotone, so the fullest queue decides."""
        threshold = self._sim.runtime.backpressure_threshold
        return tuple(
            op.name
            for op in self._bounded
            if min(1.0, _array_max(op.q_len, axis=None) / op.capacity)
            >= threshold
        )

    def check_invariants(self) -> None:
        """Queue conservation (``pushed - popped == length`` within
        ``1e-6`` relative, as :meth:`Queue.check_conservation`) and
        non-negative fire backlogs, one pass over the whole plan."""
        pushed = self._q_pushed
        popped = self._q_popped
        length = self._q_len[:-1]
        drift = np.abs((pushed - popped) - length)
        bad = drift > 1e-6 * np.maximum(1.0, pushed)
        if bool(bad.any()):
            i = int(np.flatnonzero(bad)[0])
            raise EngineError(
                "queue conservation violated: "
                f"pushed={float(pushed[i])} "
                f"popped={float(popped[i])} "
                f"length={float(length[i])}"
            )
        negative = self._fire_backlog < -1e-6
        if bool(negative.any()):
            row = int(np.flatnonzero(negative)[0])
            for name, op in self._ops.items():
                if op.row_start <= row < op.row_stop:
                    raise EngineError(
                        "negative fire backlog at "
                        f"{InstanceId(name, row - op.row_start)}"
                    )

    # ------------------------------------------------------------------
    # Demand estimation and latency delays
    # ------------------------------------------------------------------

    def estimate_demands(self, dt: float) -> Dict[str, FloatArray]:
        """Seconds of pending work per instance, one array per operator
        in topological order (consumed by ``Runtime.budgets_batch``).

        Also snapshots this tick's queue totals for the operators'
        tick work (see the module docstring on processing order)."""
        sim = self._sim
        totals = self._tick_totals = self._queue_totals()
        demands: Dict[str, FloatArray] = {}
        for name, op in self._ops.items():
            spec = op.spec
            if spec.is_source:
                schedule = spec.rate
                assert schedule is not None
                rate = schedule.rate_at(sim.time)
                per_instance = (
                    rate * dt + sim.source_backlog(name)
                ) / op.parallelism
                demands[name] = np.full(
                    op.parallelism,
                    per_instance * max(op.cost_base, 1e-9),
                    dtype=np.float64,
                )
                continue
            queued = totals[op.row_start:op.row_stop]
            if op.win_buffered is not None:
                assign_cost, fire_cost = self._window_costs(op)
                demands[name] = (
                    queued * assign_cost + op.fire_backlog * fire_cost
                )
                continue
            demands[name] = queued * self._unit_cost(op)
        return demands

    def operator_delays(self) -> Dict[str, float]:
        """Per-operator drain delays for the record-latency tracker:
        the source's backlog over its rate, else the slowest instance's
        pending work in seconds."""
        sim = self._sim
        totals = self._queue_totals()
        delays: Dict[str, float] = {}
        for name, op in self._ops.items():
            spec = op.spec
            if spec.is_source:
                schedule = spec.rate
                assert schedule is not None
                rate = schedule.rate_at(sim.time)
                backlog = sim.source_backlog(name)
                delays[name] = backlog / rate if rate > 0 else 0.0
                continue
            queued = totals[op.row_start:op.row_stop]
            if op.win_buffered is not None:
                assign_cost, fire_cost = self._window_costs(op)
                per_instance = (
                    queued * assign_cost + op.fire_backlog * fire_cost
                )
            else:
                per_instance = queued * self._unit_cost(op)
            delays[name] = float(_array_max(per_instance))
        return delays

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _downstream_limit(self, op: _OpState) -> float:
        """Maximum records ``op`` may emit right now without
        overflowing any downstream instance queue (inf if unbounded)."""
        limit = math.inf
        for route in op.routes:
            dop = route.dop
            if dop.capacity is None:
                continue
            free = np.maximum(0.0, dop.capacity - dop.q_len[route.k])
            if route.all_positive:
                candidate = float(_array_min(free / dop.weights))
            elif bool(route.positive.any()):
                positive = route.positive
                candidate = float(
                    (free[positive] / dop.weights[positive]).min()
                )
            else:
                continue
            limit = min(limit, candidate)
        return limit

    def _emit(self, op: _OpState, emits: FloatArray) -> None:
        """Distribute per-upstream-instance emissions across every
        downstream instance queue.

        Downstream instance ``j`` receives the amounts
        ``emits[i] * weight[j]`` pushed sequentially over upstream
        instances ``i``; a running sum (``np.add.accumulate``) over
        ``[base, amounts...]`` replays that base-dependent sequence
        exactly. A bounded push clamps when its amount exceeds the free
        space seen at that step; before the first clamp the unclamped
        running sums are the true lengths, so the clamp test is exact,
        and clamped columns (backpressure epsilon cases) are replayed
        scalar-exactly instead. The route keeps what the pushes
        accepted for :meth:`replay_tick` (see :class:`_Route`).
        """
        for route in op.routes:
            dop = route.dop
            base_len = dop.q_len[route.k]
            base_pushed = dop.q_pushed[route.k]
            capacity = dop.capacity
            fixes: List[Tuple[int, float, float]] = []
            route.clamped = []
            if op.parallelism == 1:
                added = route.added = emits[0] * dop.weights
                if capacity is not None:
                    over = added > np.maximum(0.0, capacity - base_len)
                    if _array_any(over):
                        fixes = self._replay_clamped(
                            route, over, added[None, :]
                        )
                base_len += added
                base_pushed += added
            else:
                buf = route.buf
                amounts = buf[1:]
                np.multiply.outer(emits, dop.weights, out=amounts)
                buf[0] = base_len
                partials = np.add.accumulate(buf, axis=0, out=route.partials)
                if capacity is not None:
                    free = np.maximum(0.0, capacity - partials[:-1])
                    over = amounts > free
                    if _array_any(over, axis=None):
                        fixes = self._replay_clamped(
                            route, over.any(axis=0), amounts
                        )
                base_len[:] = partials[-1]
                buf[0] = base_pushed
                np.add.accumulate(buf, axis=0, out=partials)
                base_pushed[:] = partials[-1]
            for j, length, pushed in fixes:
                base_len[j] = length
                base_pushed[j] = pushed

    @staticmethod
    def _replay_clamped(
        route: _Route, clamped: FloatArray, amounts: FloatArray
    ) -> List[Tuple[int, float, float]]:
        """Scalar replay of the sequential bounded pushes of ``amounts``
        (one row per upstream instance) into the ``clamped`` columns of
        the route's port row; returns each column's (length, pushed)
        after and records what each push accepted in
        ``route.clamped``."""
        dop = route.dop
        k = route.k
        capacity = dop.capacity
        assert capacity is not None
        fixes = []
        for j in np.flatnonzero(clamped).tolist():
            length = float(dop.q_len[k, j])
            pushed = float(dop.q_pushed[k, j])
            column = amounts[:, j].tolist()
            for i, amount in enumerate(column):
                accepted = min(amount, max(0.0, capacity - length))
                length += accepted
                pushed += accepted
                if accepted < amount - 1e-6:
                    raise EngineError(
                        "emission overflow into "
                        f"{InstanceId(dop.name, j)}: the downstream "
                        "limit computation is inconsistent"
                    )
                column[i] = accepted
            route.clamped.append((j, column))
            fixes.append((j, length, pushed))
        return fixes

    def _pop_batch(
        self, op: _OpState, totals: FloatArray, amounts: FloatArray
    ) -> FloatArray:
        """Remove up to ``amounts[j]`` records from instance ``j``,
        drawing from each port proportionally to its backlog; returns
        the records removed per instance. ``totals`` are the instances'
        current queue totals.

        A single-port instance pops ``min(amount, length)``: its
        proportional share is ``amount * (length / length)``, exactly
        ``amount``."""
        op.popped = None
        if not op.ports:
            return np.zeros(op.parallelism, dtype=np.float64)
        queues = op.q_len
        if len(op.ports) == 1:
            removed_row = np.minimum(amounts, queues[0])
            queues[0] -= removed_row
            op.q_popped[0] += removed_row
            op.popped = removed_row
            return removed_row
        active = (amounts > 0) & (totals > 0)
        if not bool(active.any()):
            return np.zeros(op.parallelism, dtype=np.float64)
        drain = active & (amounts >= totals)
        partial = active & ~drain
        removed = np.zeros_like(queues)
        if bool(partial.any()):
            safe_totals = np.where(partial, totals, 1.0)
            shares = amounts * (queues / safe_totals)
            removed = np.where(
                partial, np.minimum(shares, queues), removed
            )
        removed = np.where(drain, queues, removed)
        new_len = queues - removed
        negative = new_len < 0
        if bool(negative.any()):
            worst = float(new_len.min())
            if worst < -1e-6:
                raise EngineError(
                    f"queue length went negative: {worst}"
                )
            new_len = np.where(negative, 0.0, new_len)
        queues[:] = new_len
        op.q_popped[:] += removed
        op.popped = removed
        popped = np.zeros(op.parallelism, dtype=np.float64)
        for k in range(len(op.ports)):
            popped = popped + removed[k]
        return popped

    @staticmethod
    def _stage(
        op: _OpState,
        pulled: FloatArray,
        pushed: FloatArray,
        busy: FloatArray,
    ) -> None:
        """Set the block's counters for this tick (see :meth:`run_tick`)."""
        counters = op.counters
        counters[0] = pulled
        counters[1] = pushed
        counters[2] = busy

    # ------------------------------------------------------------------
    # Tick work
    # ------------------------------------------------------------------

    def run_tick(
        self, budgets: Dict[str, FloatArray], dt: float, end_time: float
    ) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
        """Run every operator for one tick, sinks first, then record
        every instance's counters; returns records emitted and desired
        per source and consumed per non-source operator.

        Each instance runs exactly once per tick, so its counters are
        staged and added to the metrics accumulator in one block: the
        same single add per instance and tick as recording operator by
        operator. Useful time is the busy seconds capped at the tick,
        waiting time the rest."""
        emitted: Dict[str, float] = {}
        desired: Dict[str, float] = {}
        consumed: Dict[str, float] = {}
        self._fired = False
        for op in self._reverse_order:
            name = op.name
            if op.spec.is_source:
                emitted[name], desired[name] = self.run_source(
                    name, op.spec, budgets[name], dt
                )
            else:
                consumed[name] = self.run_operator(
                    name, op.spec, budgets[name], dt, end_time
                )
        self._record_counters(dt)
        self._result = (emitted, desired, consumed)
        return emitted, desired, consumed

    def _record_counters(self, dt: float) -> None:
        """Add the staged counters of every instance to the metrics
        accumulator (one block, one add per instance)."""
        counters = self._counters
        useful = np.minimum(counters[2], dt)
        self._sim.metrics_manager.record_block(
            0,
            self._instances,
            pulled=counters[0],
            pushed=counters[1],
            useful=useful,
            waiting=np.maximum(0.0, dt - useful),
        )

    def repeats(
        self, budgets: Dict[str, FloatArray], dt: float, end_time: float
    ) -> bool:
        """Whether this tick provably repeats the previous one, so
        :meth:`replay_tick` may stand in for :meth:`run_tick`.

        Called once at the start of every active tick (it snapshots the
        starting state and ``budgets`` for the next call). It holds when
        the previous tick ran on this deployment and this tick's inputs
        equal that tick's: the state arrays byte for byte, the budgets,
        each source's rate and capped ``want`` (the backlog reaches the
        tick only through ``want``), no window fire in either tick and
        unchanged staggered release fractions. The simulator adds the
        cost-jitter condition. The previous tick then mapped the state
        onto itself, so this one would again.
        """
        start = self._state.tobytes()
        previous, self._start_state = self._start_state, start
        previous_budgets, self._budgets = self._budgets, budgets
        if start != previous or self._fired:
            return False
        for op in self._windows:
            spec = op.spec.window
            assert spec is not None
            if spec.staggered:
                elapsed = max(0.0, end_time - op.win_last_check)
                if min(1.0, elapsed / spec.fire_interval) != op.fraction:
                    return False
            elif op.win_next_fire <= end_time:
                return False
        for op in self._sources:
            rate, _, _, want = self._source_request(op, dt)
            if _pack_key(rate, want) != _pack_key(op.rate, op.want):
                return False
        for name, budget in budgets.items():
            before = previous_budgets[name]
            if budget is before:
                # A writable array handed back twice may have been
                # refilled in place: nothing proves it unchanged.
                if budget.flags.writeable:
                    return False
            elif budget.tobytes() != before.tobytes():
                return False
        return True

    def forget_tick(self) -> None:
        """Make the next active tick run the loop (the job went down,
        so that tick does not follow an active tick)."""
        self._start_state = None

    def _source_request(
        self, op: _OpState, dt: float
    ) -> Tuple[float, float, float, float]:
        """A source's ``(rate, desired, available, want)`` this tick.

        A source may drain its external backlog at up to
        ``source_catchup_factor`` times its target rate, so it asks for
        ``want = min(available, max(cap, desired))`` records."""
        sim = self._sim
        schedule = op.spec.rate
        assert schedule is not None
        rate = schedule.rate_at(sim.time)
        desired = rate * dt
        available = desired + sim.source_backlog(op.name)
        cap = desired * sim.config.source_catchup_factor
        return rate, desired, available, min(available, max(cap, desired))

    def replay_tick(
        self, dt: float, end_time: float
    ) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, float]]:
        """Stand-in for :meth:`run_tick` on a tick :meth:`repeats`
        proved equal to the previous one: the state arrays stay as they
        are, and the cumulative counters take the previous tick's
        increments with the operations the loop performs —
        ``np.add.accumulate`` over ``[q_pushed, accepted amounts...]``,
        one add of the removed records to ``q_popped``, the state
        model's per-instance sequence, the source backlog update and
        the metrics block. Returns the previous tick's
        (emitted, desired, consumed)."""
        sim = self._sim
        profiler = sim._profiler
        emitted, desired, consumed = self._result
        for op in self._reverse_order:
            name = op.name
            if op.spec.is_source:
                available = desired[name] + sim.source_backlog(name)
                sim._source_backlog[name] = max(
                    0.0, available - emitted[name]
                )
            elif op.win_buffered is not None and profiler.enabled:
                with profiler.span("engine.window_fire"):
                    self._replay_operator(op, end_time)
            else:
                self._replay_operator(op, end_time)
            for route in op.routes:
                self._replay_pushes(route, op.parallelism)
        self._record_counters(dt)
        return dict(emitted), dict(desired), dict(consumed)

    @staticmethod
    def _replay_pushes(route: _Route, upstream: int) -> None:
        """Add the route's last pushes to ``q_pushed`` as
        :meth:`_emit` did: one add for a single upstream instance, else
        a running sum over ``[q_pushed, amounts...]``; clamped columns
        replay their accepted amounts one scalar add at a time."""
        pushed = route.dop.q_pushed[route.k]
        fixes = []
        for j, column in route.clamped:
            value = float(pushed[j])
            for accepted in column:
                value += accepted
            fixes.append((j, value))
        if upstream == 1:
            pushed += route.added
        else:
            buf = route.buf
            buf[0] = pushed
            pushed[:] = np.add.accumulate(buf, axis=0, out=route.partials)[-1]
        for j, value in fixes:
            pushed[j] = value

    def _replay_operator(self, op: _OpState, end_time: float) -> None:
        """A non-source operator's share of :meth:`replay_tick`."""
        if op.popped is not None:
            op.q_popped += op.popped
        if op.win_buffered is not None:
            assert op.spec.window is not None
            if op.spec.window.staggered:
                op.win_last_check = end_time
        self._sim.state_model.record_processed_block(op.name, op.processed)

    def run_source(
        self,
        name: str,
        spec: OperatorSpec,
        budgets: FloatArray,
        dt: float,
    ) -> Tuple[float, float]:
        """Generate and emit source records; returns
        ``(emitted, desired)``.

        The source asks for ``want`` records (see
        :meth:`_source_request`). Each instance generates an equal share
        of the stream, and the shared downstream space is divided fairly
        among them."""
        sim = self._sim
        op = self._ops[name]
        rate, desired, available, want = self._source_request(op, dt)
        op.rate = rate
        op.want = want
        if sim.runtime.sources_blocked_by_backpressure:
            space = self._downstream_limit(op)
        else:
            space = math.inf
        cost = op.cost_base
        share = want / op.parallelism
        if cost <= 0:
            desires = np.full(
                op.parallelism, share, dtype=np.float64
            )
        else:
            desires = np.minimum(share, budgets / cost)
        allocations = fair_allocate_batch(space, desires)
        self._emit(op, allocations)
        self._stage(op, allocations, allocations, allocations * cost)
        emitted_total = 0.0
        for value in allocations.tolist():
            emitted_total += value
        sim._source_backlog[name] = max(
            0.0, available - emitted_total
        )
        return emitted_total, desired

    def run_operator(
        self,
        name: str,
        spec: OperatorSpec,
        budgets: FloatArray,
        dt: float,
        end_time: float,
    ) -> float:
        """Run one non-source operator for a tick; returns records
        consumed (meaningful for sinks).

        The downstream space for this operator's emissions this tick
        is shared fairly among its instances, so a squeezed instance
        does not distort the backpressure limit seen upstream."""
        sim = self._sim
        op = self._ops[name]
        if spec.is_sink:
            space = math.inf
        else:
            space = self._downstream_limit(op)
        totals = self._tick_totals[op.row_start:op.row_stop]
        if op.win_buffered is not None:
            profiler = sim._profiler
            if profiler.enabled:
                with profiler.span("engine.window_fire"):
                    return self._run_window(
                        op, totals, budgets, dt, end_time, space
                    )
            return self._run_window(
                op, totals, budgets, dt, end_time, space
            )
        unit_cost = self._unit_cost(op)
        selectivity = op.selectivity
        if unit_cost <= 0:
            desires = totals
        else:
            desires = np.minimum(totals, budgets / unit_cost)
        pull_cap = (
            math.inf if selectivity <= 0 else space / selectivity
        )
        allocations = fair_allocate_batch(pull_cap, desires)
        processed = self._pop_batch(op, totals, allocations)
        if spec.is_sink:
            pushed = np.zeros(op.parallelism, dtype=np.float64)
        else:
            pushed = processed * selectivity
            self._emit(op, pushed)
        self._stage(op, processed, pushed, processed * unit_cost)
        processed_list = op.processed = processed.tolist()
        sim.state_model.record_processed_block(name, processed_list)
        consumed_total = 0.0
        for value in processed_list:
            consumed_total += value
        return consumed_total

    def _run_window(
        self,
        op: _OpState,
        totals: FloatArray,
        budgets: FloatArray,
        dt: float,
        end_time: float,
        space: float,
    ) -> float:
        sim = self._sim
        window_spec = op.spec.window
        assert window_spec is not None and op.win_buffered is not None
        assign_cost, fire_cost = self._window_costs(op)
        fire_sel = window_spec.fire_selectivity
        backlog = op.fire_backlog
        # Fire work and assignment work share each instance's budget
        # proportionally to their demands (the scheduler interleaves
        # them); a fire-first priority would let a large fire backlog
        # starve input reading entirely, collapsing throughput instead
        # of degrading it.
        fire_demand = backlog * fire_cost
        total_demand = fire_demand + totals * assign_cost
        has_demand = total_demand > 0
        share = np.where(
            has_demand,
            np.minimum(
                1.0,
                fire_demand / np.where(has_demand, total_demand, 1.0),
            ),
            0.0,
        )
        # Stage 1: drain the fire backlogs (burst work), sharing the
        # downstream space fairly.
        if fire_cost <= 0:
            fire_desires = backlog.copy()
        else:
            fire_desires = np.minimum(
                backlog, (budgets * share) / fire_cost
            )
        fire_cap = math.inf if fire_sel <= 0 else space / fire_sel
        fired = fair_allocate_batch(fire_cap, fire_desires)
        backlog -= fired
        emit = fired * fire_sel
        self._emit(op, emit)
        budgets_left = np.maximum(0.0, budgets - fired * fire_cost)
        # Stage 2: assign newly arrived records to windows (no
        # emission, so no space constraint). Firing popped nothing, so
        # the queue totals are unchanged.
        if assign_cost <= 0:
            amounts = totals
        else:
            amounts = np.minimum(
                totals, budgets_left / assign_cost
            )
        assigned = self._pop_batch(op, totals, amounts)
        # WindowState.assign, element-wise: each instance buffers its
        # replicated share of the assigned records.
        buffered = op.win_buffered + assigned * window_spec.replication
        # Stage 3: check window boundaries — WindowState.maybe_fire
        # with the shared lockstep fire clock (see _OpState).
        if window_spec.staggered:
            elapsed = max(0.0, end_time - op.win_last_check)
            op.win_last_check = end_time
            fraction = op.fraction = min(
                1.0, elapsed / window_spec.fire_interval
            )
            released = buffered * fraction
            buffered = buffered - released
            backlog += released
        else:
            fires = 0
            next_fire = op.win_next_fire
            while next_fire <= end_time:
                fires += 1
                next_fire += window_spec.fire_interval
            op.win_next_fire = next_fire
            if fires:
                self._fired = True
                backlog += buffered
                buffered = np.zeros(op.parallelism, dtype=np.float64)
            else:
                backlog += 0.0
        op.win_buffered[:] = buffered
        self._stage(
            op, assigned, emit, fired * fire_cost + assigned * assign_cost
        )
        assigned_list = op.processed = assigned.tolist()
        sim.state_model.record_processed_block(op.name, assigned_list)
        consumed_total = 0.0
        for value in assigned_list:
            consumed_total += value
        return consumed_total

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def materialize_instances(self) -> Dict[str, List[_Instance]]:
        """Per-instance snapshots of the array state, for callers
        (tests, debuggers) that inspect ``Simulator._instances``.

        Queues are rebuilt with the exact length / pushed / popped
        values of the arrays, so conservation checks and fill fractions
        read identically; window state machines are rebuilt from the
        buffered array and the shared fire clock. The result is
        read-only: mutations do not flow back into the arrays.
        """
        result: Dict[str, List[_Instance]] = {}
        for name, op in self._ops.items():
            instances: List[_Instance] = []
            for j in range(op.parallelism):
                ports: Dict[str, Queue] = {}
                for k, port in enumerate(op.ports):
                    queue = Queue(capacity=op.capacity)
                    queue._length = float(op.q_len[k, j])
                    queue._pushed = float(op.q_pushed[k, j])
                    queue._popped = float(op.q_popped[k, j])
                    ports[port] = queue
                instance = _Instance(
                    iid=InstanceId(name, j),
                    spec=op.spec,
                    ports=ports,
                )
                if op.win_buffered is not None:
                    assert op.spec.window is not None
                    window = WindowState(spec=op.spec.window)
                    window.buffered = float(op.win_buffered[j])
                    window.next_fire = op.win_next_fire
                    window._last_check = op.win_last_check
                    instance.window = window
                instance.fire_backlog = float(op.fire_backlog[j])
                instances.append(instance)
            result[name] = instances
        return result


__all__ = ["VectorEngine"]
