"""Static checks on logical dataflow graphs.

The DS2 decision is one traversal of the logical graph (paper Eq. 7/8):
true processing/output rates propagate from the sources along a DAG.
That traversal is only well-defined on a well-formed graph — acyclic,
every operator fed by some source and draining to some sink, sane
selectivities. :class:`~repro.dataflow.graph.LogicalGraph` enforces the
structural core at construction, but (a) its fail-fast errors surface
one at a time deep inside whatever built the graph, and (b) nothing
re-checks graphs that arrive through other paths (JSON specs, future
loaders). This module validates a *lenient* representation that can
hold malformed graphs, reports **every** problem at once with
actionable messages, and is wired into ``repro check-graph`` plus
:class:`~repro.engine.simulator.Simulator` /
:class:`~repro.faults.campaigns.CampaignRunner` construction.

Check catalog (also in ``docs/analysis.md``):

========= ======================================================
GRAPH100  malformed spec (duplicate names/edges, unknown
          endpoints, self-loops, unknown operator kind)
GRAPH101  cycle (the Eq. 7/8 traversal never terminates)
GRAPH102  no source operator
GRAPH103  no sink operator
GRAPH104  orphan: operator unreachable from every source
GRAPH105  dead end: non-sink operator that reaches no sink
GRAPH106  source with incoming edges
GRAPH107  sink with outgoing edges
GRAPH108  join without exactly two inputs
GRAPH201  parallelism out of bounds (< 1, above the slot limit,
          scaled non-data-parallel operator, unknown operator)
GRAPH301  rate sanity: non-finite/negative selectivity, zero
          source rate, operator whose long-run true rate is zero
          (warnings unless non-finite)
========= ======================================================
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    from repro.dataflow.graph import LogicalGraph

from repro.analysis.report import Diagnostic, Severity, has_errors
from repro.analysis.rules import AnalysisError, Rule, RuleRegistry
from repro.errors import GraphError

#: Registry of every graph check.
GRAPH_CHECKS = RuleRegistry()

MALFORMED = GRAPH_CHECKS.register(Rule(
    id="GRAPH100", name="malformed-spec",
    summary="spec-level defect (duplicates, unknown endpoints, ...)",
    rationale=(
        "a spec that does not even name a coherent set of operators "
        "and edges cannot be checked further"
    ),
))
CYCLE = GRAPH_CHECKS.register(Rule(
    id="GRAPH101", name="cycle",
    summary="the graph contains a directed cycle",
    rationale=(
        "DS2 numbers operators so every edge goes forward (paper "
        "section 3.1); a cycle makes the one-traversal rate "
        "propagation of Eq. 7/8 undefined"
    ),
))
NO_SOURCE = GRAPH_CHECKS.register(Rule(
    id="GRAPH102", name="no-source",
    summary="the graph has no source operator",
    rationale="without a source there is no λ_src to scale against",
))
NO_SINK = GRAPH_CHECKS.register(Rule(
    id="GRAPH103", name="no-sink",
    summary="the graph has no sink operator",
    rationale="records must drain somewhere for rates to be steady",
))
ORPHAN = GRAPH_CHECKS.register(Rule(
    id="GRAPH104", name="orphan",
    summary="operator unreachable from every source",
    rationale=(
        "an unreachable operator observes no records, so its true "
        "rates are 0/0 and its optimal parallelism is undefined"
    ),
))
DEAD_END = GRAPH_CHECKS.register(Rule(
    id="GRAPH105", name="dead-end",
    summary="non-sink operator that reaches no sink",
    rationale=(
        "records entering it never drain; queues grow without bound "
        "and backpressure propagates to the sources"
    ),
))
SOURCE_INPUT = GRAPH_CHECKS.register(Rule(
    id="GRAPH106", name="source-with-inputs",
    summary="source operator with incoming edges",
    rationale="sources are externally driven; they consume nothing",
))
SINK_OUTPUT = GRAPH_CHECKS.register(Rule(
    id="GRAPH107", name="sink-with-outputs",
    summary="sink operator with outgoing edges",
    rationale="sinks terminate the dataflow; they emit nothing",
))
JOIN_ARITY = GRAPH_CHECKS.register(Rule(
    id="GRAPH108", name="join-arity",
    summary="join without exactly two inputs",
    rationale="the two-input incremental join needs both relations",
))
PARALLELISM = GRAPH_CHECKS.register(Rule(
    id="GRAPH201", name="parallelism-bounds",
    summary="parallelism below 1, above the slot limit, or pinned",
    rationale=(
        "the simulator deploys one instance per slot; impossible "
        "parallelisms fail here instead of mid-simulation"
    ),
))
RATE_SANITY = GRAPH_CHECKS.register(Rule(
    id="GRAPH301", name="rate-sanity",
    summary="selectivity/rate values that break the Eq. 7/8 ratios",
    rationale=(
        "the true-rate propagation multiplies selectivities along "
        "paths; non-finite values poison every downstream estimate "
        "and all-zero rates make ratios 0/0"
    ),
))

#: Operator kinds the checker understands (mirrors
#: :class:`repro.dataflow.operators.OperatorKind` without importing it
#: eagerly — specs from JSON may carry arbitrary strings).
KNOWN_KINDS: Tuple[str, ...] = (
    "source", "sink", "map", "flatmap", "filter", "join", "window",
)


@dataclass(frozen=True)
class NodeSpec:
    """A lenient, possibly-invalid operator description.

    Unlike :class:`~repro.dataflow.operators.OperatorSpec`, nothing is
    validated at construction — the checker's whole point is to hold
    malformed inputs long enough to diagnose them.
    """

    name: str
    kind: str = "map"
    selectivity: float = 1.0
    max_rate: Optional[float] = None
    data_parallel: bool = True

    @property
    def is_source(self) -> bool:
        return self.kind == "source"

    @property
    def is_sink(self) -> bool:
        return self.kind == "sink"


@dataclass(frozen=True)
class GraphSpec:
    """A graph candidate: nodes plus (upstream, downstream) edges."""

    nodes: Tuple[NodeSpec, ...]
    edges: Tuple[Tuple[str, str], ...]
    name: str = "graph"

    def node_names(self) -> Tuple[str, ...]:
        return tuple(node.name for node in self.nodes)


def graph_spec_from_logical(
    graph: "LogicalGraph", name: str = "graph"
) -> GraphSpec:
    """Project a built :class:`~repro.dataflow.graph.LogicalGraph`
    into the checker's representation."""
    nodes = []
    for op_name, spec in graph.operators.items():
        max_rate = None
        if spec.rate is not None:
            max_rate = spec.rate.max_rate
        nodes.append(NodeSpec(
            name=op_name,
            kind=spec.kind.value,
            selectivity=spec.long_run_selectivity,
            max_rate=max_rate,
            data_parallel=spec.data_parallel,
        ))
    edges = tuple(
        (edge.upstream, edge.downstream) for edge in graph.edges
    )
    return GraphSpec(nodes=tuple(nodes), edges=edges, name=name)


def graph_spec_from_json(
    data: Union[str, Path, Mapping],
) -> GraphSpec:
    """Load a :class:`GraphSpec` from a JSON document.

    Accepts a path, a JSON string, or an already-parsed mapping of
    the shape::

        {"name": "my-graph",
         "operators": [{"name": "in", "kind": "source", "rate": 1e6},
                       {"name": "work", "selectivity": 2.0},
                       {"name": "out", "kind": "sink"}],
         "edges": [["in", "work"], ["work", "out"]]}

    Defaults: ``kind`` "map", ``selectivity`` 1.0, ``data_parallel``
    true. Structure problems (missing keys, wrong types) raise
    :class:`~repro.analysis.rules.AnalysisError`; *semantic* problems
    (cycles, orphans, bad kinds) are left for :func:`check_graph`.
    """
    try:
        if isinstance(data, Path):
            data = json.loads(data.read_text(encoding="utf-8"))
        elif isinstance(data, str):
            candidate = Path(data)
            try:
                is_file = candidate.is_file()
            except OSError:
                is_file = False
            if is_file:
                data = json.loads(
                    candidate.read_text(encoding="utf-8")
                )
            else:
                data = json.loads(data)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise AnalysisError(
            f"could not load graph spec: {exc}"
        ) from exc
    except RecursionError:
        raise AnalysisError(
            "could not load graph spec: JSON nested too deeply"
        ) from None
    if not isinstance(data, Mapping):
        raise AnalysisError("graph spec must be a JSON object")
    operators = data.get("operators")
    edges = data.get("edges")
    if not isinstance(operators, Sequence) or isinstance(
        operators, (str, bytes)
    ):
        raise AnalysisError("graph spec needs an 'operators' array")
    if not isinstance(edges, Sequence) or isinstance(
        edges, (str, bytes)
    ):
        raise AnalysisError("graph spec needs an 'edges' array")
    nodes: List[NodeSpec] = []
    for index, raw in enumerate(operators):
        if isinstance(raw, str):
            raw = {"name": raw}
        if not isinstance(raw, Mapping) or "name" not in raw:
            raise AnalysisError(
                f"operator #{index} must be an object with a 'name'"
            )
        name = str(raw["name"])
        data_parallel = raw.get("data_parallel", True)
        if not isinstance(data_parallel, bool):
            raise AnalysisError(
                f"operator {name!r}: 'data_parallel' must be true or "
                f"false, got {data_parallel!r}"
            )
        nodes.append(NodeSpec(
            name=name,
            kind=str(raw.get("kind", "map")),
            selectivity=_number(
                name, "selectivity", raw.get("selectivity", 1.0)
            ),
            max_rate=(
                _number(name, "rate", raw["rate"]) if "rate" in raw else None
            ),
            data_parallel=data_parallel,
        ))
    edge_pairs: List[Tuple[str, str]] = []
    for index, raw_edge in enumerate(edges):
        if (
            not isinstance(raw_edge, Sequence)
            or isinstance(raw_edge, (str, bytes))
            or len(raw_edge) != 2
        ):
            raise AnalysisError(
                f"edge #{index} must be a [upstream, downstream] pair"
            )
        edge_pairs.append((str(raw_edge[0]), str(raw_edge[1])))
    return GraphSpec(
        nodes=tuple(nodes),
        edges=tuple(edge_pairs),
        name=str(data.get("name", "graph")),
    )


def _number(operator: str, field_name: str, value: object) -> float:
    """An operator field's ``value`` as a float. A JSON number is
    required, so strings, lists and booleans raise
    :class:`AnalysisError` naming the operator and the field. Range
    problems (negative, NaN) are left for :func:`check_graph`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AnalysisError(
            f"operator {operator!r}: {field_name!r} must be a number, "
            f"got {value!r}"
        )
    try:
        return float(value)
    except OverflowError:
        raise AnalysisError(
            f"operator {operator!r}: {field_name!r} is too large"
        ) from None


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------

@dataclass
class _Checker:
    """One check run over one :class:`GraphSpec`."""

    spec: GraphSpec
    parallelism: Optional[Mapping[str, int]] = None
    max_parallelism: Optional[int] = None
    findings: List[Diagnostic] = field(default_factory=list)

    def _report(
        self,
        rule: Rule,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> None:
        self.findings.append(Diagnostic(
            code=rule.id,
            message=message,
            path=self.spec.name,
            severity=severity,
        ))

    def run(self) -> List[Diagnostic]:
        nodes = self._spec_level()
        if nodes:
            upstream, downstream = self._adjacency(nodes)
            self._kind_structure(nodes, upstream, downstream)
            cycle_free = self._acyclicity(nodes, upstream)
            self._reachability(nodes, upstream, downstream)
            if cycle_free:
                self._rate_sanity(nodes, upstream)
            self._parallelism_bounds(nodes)
        return self.findings

    # -- GRAPH100 ------------------------------------------------------

    def _spec_level(self) -> Dict[str, NodeSpec]:
        names = [node.name for node in self.spec.nodes]
        for name in sorted({n for n in names if names.count(n) > 1}):
            self._report(
                MALFORMED,
                f"duplicate operator name {name!r}: rename one of "
                f"the {names.count(name)} operators",
            )
        nodes: Dict[str, NodeSpec] = {}
        for node in self.spec.nodes:
            nodes.setdefault(node.name, node)
            if not node.name:
                self._report(
                    MALFORMED, "operator with an empty name"
                )
            if node.kind not in KNOWN_KINDS:
                self._report(
                    MALFORMED,
                    f"operator {node.name!r} has unknown kind "
                    f"{node.kind!r} (expected one of: "
                    f"{', '.join(KNOWN_KINDS)})",
                )
        seen_edges: Set[Tuple[str, str]] = set()
        for up, down in self.spec.edges:
            for endpoint in (up, down):
                if endpoint not in nodes:
                    self._report(
                        MALFORMED,
                        f"edge ({up!r} -> {down!r}) references "
                        f"unknown operator {endpoint!r}: add it to "
                        "'operators' or fix the edge",
                    )
            if up == down:
                self._report(
                    MALFORMED,
                    f"self-loop on {up!r}: an operator cannot feed "
                    "itself",
                )
            if (up, down) in seen_edges:
                self._report(
                    MALFORMED, f"duplicate edge ({up!r} -> {down!r})"
                )
            seen_edges.add((up, down))
        if not nodes:
            self._report(MALFORMED, "the graph has no operators")
        return nodes

    def _adjacency(
        self, nodes: Mapping[str, NodeSpec]
    ) -> Tuple[Dict[str, List[str]], Dict[str, List[str]]]:
        upstream: Dict[str, List[str]] = {n: [] for n in nodes}
        downstream: Dict[str, List[str]] = {n: [] for n in nodes}
        for up, down in self.spec.edges:
            if up in nodes and down in nodes and up != down:
                downstream[up].append(down)
                upstream[down].append(up)
        return upstream, downstream

    # -- GRAPH102/103/106/107/108 --------------------------------------

    def _kind_structure(
        self,
        nodes: Mapping[str, NodeSpec],
        upstream: Mapping[str, List[str]],
        downstream: Mapping[str, List[str]],
    ) -> None:
        if not any(node.is_source for node in nodes.values()):
            self._report(
                NO_SOURCE,
                "no source operator: add an operator with kind "
                "'source' (and a rate) so the dataflow has input",
            )
        if not any(node.is_sink for node in nodes.values()):
            self._report(
                NO_SINK,
                "no sink operator: add an operator with kind 'sink' "
                "so records drain out of the dataflow",
            )
        for name in nodes:
            node = nodes[name]
            if node.is_source and upstream[name]:
                self._report(
                    SOURCE_INPUT,
                    f"source {name!r} has incoming edges from "
                    f"{sorted(upstream[name])}: sources are driven "
                    "externally; remove the edges or change the kind",
                )
            if node.is_sink and downstream[name]:
                self._report(
                    SINK_OUTPUT,
                    f"sink {name!r} has outgoing edges to "
                    f"{sorted(downstream[name])}: sinks terminate "
                    "the dataflow; remove the edges or change the "
                    "kind",
                )
            if node.kind == "join" and len(upstream[name]) != 2:
                self._report(
                    JOIN_ARITY,
                    f"join {name!r} has {len(upstream[name])} "
                    "input(s) but needs exactly two",
                )

    # -- GRAPH101 ------------------------------------------------------

    def _acyclicity(
        self,
        nodes: Mapping[str, NodeSpec],
        upstream: Mapping[str, List[str]],
    ) -> bool:
        in_degree = {name: len(ups) for name, ups in upstream.items()}
        ready = [name for name, deg in in_degree.items() if deg == 0]
        order: List[str] = []
        downstream: Dict[str, List[str]] = {n: [] for n in nodes}
        for name, ups in upstream.items():
            for up in ups:
                downstream[up].append(name)
        while ready:
            name = ready.pop()
            order.append(name)
            for succ in downstream[name]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        if len(order) == len(nodes):
            self._topo_order = order
            return True
        # Kahn's leftovers include everything downstream of a cycle;
        # trim to nodes that are actually *on* one (those that still
        # have a leftover predecessor after peeling from both ends).
        remaining = set(nodes) - set(order)
        trimmed = True
        while trimmed:
            trimmed = False
            for name in sorted(remaining):
                ups = [u for u in upstream[name] if u in remaining]
                downs = [
                    d for d in downstream[name] if d in remaining
                ]
                if not ups or not downs:
                    remaining.discard(name)
                    trimmed = True
        self._report(
            CYCLE,
            f"cycle through {sorted(remaining)}: break it by "
            "removing one of the back edges (DS2 dataflows are DAGs; "
            "feedback loops are not supported)",
        )
        return False

    # -- GRAPH104/105 --------------------------------------------------

    def _reachability(
        self,
        nodes: Mapping[str, NodeSpec],
        upstream: Mapping[str, List[str]],
        downstream: Mapping[str, List[str]],
    ) -> None:
        sources = [n for n, node in nodes.items() if node.is_source]
        sinks = [n for n, node in nodes.items() if node.is_sink]
        fed = self._closure(sources, downstream)
        draining = self._closure(sinks, upstream)
        for name in nodes:
            node = nodes[name]
            if not node.is_source and name not in fed:
                self._report(
                    ORPHAN,
                    f"operator {name!r} is unreachable from every "
                    "source: it would never observe a record and its "
                    "optimal parallelism (Eq. 7/8) is undefined; "
                    "connect it or remove it",
                )
            if not node.is_sink and name not in draining:
                self._report(
                    DEAD_END,
                    f"operator {name!r} cannot reach any sink: its "
                    "output accumulates forever; connect it to a "
                    "sink or make it one",
                )

    @staticmethod
    def _closure(
        roots: Sequence[str], step: Mapping[str, List[str]]
    ) -> Set[str]:
        seen: Set[str] = set(roots)
        frontier = list(roots)
        while frontier:
            name = frontier.pop()
            for neighbor in step[name]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen

    # -- GRAPH301 ------------------------------------------------------

    def _rate_sanity(
        self,
        nodes: Mapping[str, NodeSpec],
        upstream: Mapping[str, List[str]],
    ) -> None:
        for name in sorted(nodes):
            node = nodes[name]
            if not math.isfinite(node.selectivity):
                self._report(
                    RATE_SANITY,
                    f"operator {name!r} has non-finite selectivity "
                    f"{node.selectivity!r}: every downstream true "
                    "rate would be poisoned",
                )
            elif node.selectivity < 0:
                self._report(
                    RATE_SANITY,
                    f"operator {name!r} has negative selectivity "
                    f"{node.selectivity!r}: records cannot be "
                    "un-produced",
                )
            if node.is_source:
                if node.max_rate is None:
                    self._report(
                        RATE_SANITY,
                        f"source {name!r} has no rate: the true "
                        "source rate λ_src drives every estimate",
                        severity=Severity.WARNING,
                    )
                elif not math.isfinite(node.max_rate) or node.max_rate < 0:
                    self._report(
                        RATE_SANITY,
                        f"source {name!r} has invalid rate "
                        f"{node.max_rate!r}",
                    )
                elif node.max_rate == 0:
                    self._report(
                        RATE_SANITY,
                        f"source {name!r} never emits (rate 0): all "
                        "downstream rate ratios are 0/0",
                        severity=Severity.WARNING,
                    )
        # Propagate expected arrivals (records per source record) in
        # topological order; a zero at a reachable non-source operator
        # means the Eq. 7/8 ratio there is structurally 0/0.
        arrivals: Dict[str, float] = {}
        for name in getattr(self, "_topo_order", []):
            node = nodes[name]
            if node.is_source:
                arrivals[name] = 1.0
                continue
            total = 0.0
            for up in upstream[name]:
                sel = nodes[up].selectivity
                if not math.isfinite(sel) or sel < 0:
                    sel = 0.0
                if nodes[up].is_source:
                    # A source forwards its own emissions 1:1.
                    sel = 1.0
                total += arrivals.get(up, 0.0) * sel
            arrivals[name] = total
            if total == 0.0 and upstream[name]:
                self._report(
                    RATE_SANITY,
                    f"operator {name!r} receives no records in the "
                    "long run (upstream selectivity product is 0): "
                    "its true-rate ratio is 0/0 and DS2 cannot size "
                    "it",
                    severity=Severity.WARNING,
                )

    # -- GRAPH201 ------------------------------------------------------

    def _parallelism_bounds(
        self, nodes: Mapping[str, NodeSpec]
    ) -> None:
        if self.parallelism is None:
            return
        for name in sorted(self.parallelism):
            value = self.parallelism[name]
            if name not in nodes:
                self._report(
                    PARALLELISM,
                    f"parallelism given for unknown operator "
                    f"{name!r}",
                )
                continue
            if value < 1:
                self._report(
                    PARALLELISM,
                    f"operator {name!r} has parallelism {value}; "
                    "every deployed operator needs >= 1 instance",
                )
            if (
                self.max_parallelism is not None
                and value > self.max_parallelism
            ):
                self._report(
                    PARALLELISM,
                    f"operator {name!r} has parallelism {value} "
                    f"above the slot limit {self.max_parallelism}",
                )
            if not nodes[name].data_parallel and value > 1:
                self._report(
                    PARALLELISM,
                    f"operator {name!r} is not data-parallel but "
                    f"has parallelism {value}; pin it at 1",
                )


def check_graph(
    spec: Union[GraphSpec, "LogicalGraph"],
    *,
    parallelism: Optional[Mapping[str, int]] = None,
    max_parallelism: Optional[int] = None,
    name: Optional[str] = None,
) -> List[Diagnostic]:
    """Run every graph check; returns all findings (errors first in
    severity, but ordering is by code — use
    :func:`~repro.analysis.report.sort_diagnostics` for display).

    ``spec`` is a :class:`GraphSpec` or a built
    :class:`~repro.dataflow.graph.LogicalGraph`. ``parallelism`` and
    ``max_parallelism`` enable the GRAPH201 bounds checks.
    """
    if not isinstance(spec, GraphSpec):
        spec = graph_spec_from_logical(spec, name=name or "graph")
    elif name is not None:
        spec = GraphSpec(
            nodes=spec.nodes, edges=spec.edges, name=name
        )
    checker = _Checker(
        spec=spec,
        parallelism=parallelism,
        max_parallelism=max_parallelism,
    )
    return checker.run()


def ensure_valid_graph(
    graph: Union[GraphSpec, "LogicalGraph"],
    *,
    parallelism: Optional[Mapping[str, int]] = None,
    max_parallelism: Optional[int] = None,
    name: str = "graph",
) -> None:
    """Raise :class:`~repro.errors.GraphError` if any error-severity
    check fails; warnings are ignored. This is the construction-time
    hook used by ``Simulator`` and ``CampaignRunner``."""
    findings = check_graph(
        graph,
        parallelism=parallelism,
        max_parallelism=max_parallelism,
        name=name,
    )
    errors = [
        f for f in findings if f.severity is Severity.ERROR
    ]
    if errors:
        summary = "; ".join(
            f"[{f.code}] {f.message}" for f in errors
        )
        raise GraphError(
            f"invalid dataflow graph {name!r}: {summary}"
        )
    assert not has_errors(findings)


__all__ = [
    "GRAPH_CHECKS",
    "GraphSpec",
    "KNOWN_KINDS",
    "NodeSpec",
    "check_graph",
    "ensure_valid_graph",
    "graph_spec_from_json",
    "graph_spec_from_logical",
]
