"""Tests for the dataflow-graph static checker
(``repro.analysis.graphcheck``)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    GRAPH_CHECKS,
    AnalysisError,
    GraphSpec,
    NodeSpec,
    Severity,
    check_graph,
    ensure_valid_graph,
    graph_spec_from_json,
    graph_spec_from_logical,
)
from repro.analysis.workload_graphs import (
    build_graph,
    builtin_graph_names,
)
from repro.errors import GraphError


def _spec(nodes, edges, name="test-graph"):
    return GraphSpec(nodes=tuple(nodes), edges=tuple(edges), name=name)


def _errors(findings):
    return [f for f in findings if f.severity is Severity.ERROR]


def _codes(findings):
    return {f.code for f in findings}


def _linear(*, source_rate=100.0):
    return _spec(
        [
            NodeSpec("src", kind="source", max_rate=source_rate),
            NodeSpec("map", kind="map"),
            NodeSpec("out", kind="sink"),
        ],
        [("src", "map"), ("map", "out")],
    )


class TestWellFormedGraphs:
    def test_linear_pipeline_is_clean(self):
        assert check_graph(_linear()) == []

    @pytest.mark.parametrize("name", builtin_graph_names())
    def test_every_builtin_graph_passes(self, name):
        graph = build_graph(name)
        findings = check_graph(graph, name=name)
        assert _errors(findings) == [], (
            f"built-in graph {name!r} fails its own invariants: "
            f"{[f.message for f in findings]}"
        )

    def test_accepts_logical_graph_directly(self):
        graph = build_graph("wordcount-heron")
        direct = check_graph(graph)
        via_spec = check_graph(graph_spec_from_logical(graph))
        assert direct == via_spec


class TestStructuralErrors:
    def test_cycle_is_rejected_with_cycle_members(self):
        spec = _spec(
            [
                NodeSpec("src", kind="source", max_rate=10.0),
                NodeSpec("a"),
                NodeSpec("b"),
                NodeSpec("out", kind="sink"),
            ],
            [("src", "a"), ("a", "b"), ("b", "a"), ("a", "out")],
        )
        findings = check_graph(spec)
        assert _codes(findings) == {"GRAPH101"}
        (finding,) = findings
        # Actionable: names exactly the nodes on the cycle (not the
        # innocent downstream sink) and says how to fix it.
        assert "['a', 'b']" in finding.message
        assert "removing one of the back edges" in finding.message

    def test_orphan_operator_is_rejected(self):
        spec = _spec(
            [
                NodeSpec("src", kind="source", max_rate=10.0),
                NodeSpec("a"),
                NodeSpec("lost"),
                NodeSpec("out", kind="sink"),
            ],
            [("src", "a"), ("a", "out")],
        )
        findings = check_graph(spec)
        assert "GRAPH104" in _codes(findings)
        orphan = next(f for f in findings if f.code == "GRAPH104")
        assert "'lost'" in orphan.message
        assert "unreachable from every source" in orphan.message

    def test_dead_end_operator_is_rejected(self):
        spec = _spec(
            [
                NodeSpec("src", kind="source", max_rate=10.0),
                NodeSpec("stuck"),
                NodeSpec("out", kind="sink"),
            ],
            [("src", "stuck"), ("src", "out")],
        )
        findings = check_graph(spec)
        assert "GRAPH105" in _codes(findings)

    def test_missing_source_and_sink(self):
        spec = _spec(
            [NodeSpec("a"), NodeSpec("b")], [("a", "b")]
        )
        codes = _codes(check_graph(spec))
        assert "GRAPH102" in codes
        assert "GRAPH103" in codes

    def test_source_with_inputs_and_sink_with_outputs(self):
        spec = _spec(
            [
                NodeSpec("src", kind="source", max_rate=10.0),
                NodeSpec("mid"),
                NodeSpec("out", kind="sink"),
            ],
            [
                ("src", "mid"),
                ("mid", "src"),
                ("mid", "out"),
                ("out", "mid"),
            ],
        )
        codes = _codes(check_graph(spec))
        assert "GRAPH106" in codes
        assert "GRAPH107" in codes

    def test_join_requires_two_inputs(self):
        spec = _spec(
            [
                NodeSpec("src", kind="source", max_rate=10.0),
                NodeSpec("j", kind="join"),
                NodeSpec("out", kind="sink"),
            ],
            [("src", "j"), ("j", "out")],
        )
        assert "GRAPH108" in _codes(check_graph(spec))

    def test_malformed_spec_reports_every_problem_at_once(self):
        spec = _spec(
            [
                NodeSpec("src", kind="source", max_rate=10.0),
                NodeSpec("src", kind="source", max_rate=10.0),
                NodeSpec("odd", kind="quantum"),
                NodeSpec("out", kind="sink"),
            ],
            [
                ("src", "out"),
                ("src", "ghost"),
                ("odd", "odd"),
            ],
        )
        findings = check_graph(spec)
        messages = " | ".join(
            f.message for f in findings if f.code == "GRAPH100"
        )
        assert "duplicate operator name 'src'" in messages
        assert "unknown kind 'quantum'" in messages
        assert "unknown operator 'ghost'" in messages
        assert "self-loop" in messages


class TestPlanChecks:
    def test_parallelism_bounds(self):
        findings = check_graph(
            _linear(),
            parallelism={"src": 0, "map": 99, "ghost": 1},
            max_parallelism=16,
        )
        assert _codes(findings) == {"GRAPH201"}
        messages = " | ".join(f.message for f in findings)
        assert "'src'" in messages
        assert "'map'" in messages
        assert "'ghost'" in messages

    def test_non_data_parallel_operator_cannot_scale(self):
        spec = _spec(
            [
                NodeSpec("src", kind="source", max_rate=10.0),
                NodeSpec(
                    "serial", kind="map", data_parallel=False
                ),
                NodeSpec("out", kind="sink"),
            ],
            [("src", "serial"), ("serial", "out")],
        )
        findings = check_graph(spec, parallelism={"serial": 4})
        assert _codes(findings) == {"GRAPH201"}

    def test_valid_plan_is_clean(self):
        findings = check_graph(
            _linear(),
            parallelism={"src": 1, "map": 8, "out": 1},
            max_parallelism=16,
        )
        assert findings == []


class TestRateSanity:
    def test_negative_selectivity_is_error(self):
        spec = _spec(
            [
                NodeSpec("src", kind="source", max_rate=10.0),
                NodeSpec("bad", selectivity=-2.0),
                NodeSpec("out", kind="sink"),
            ],
            [("src", "bad"), ("bad", "out")],
        )
        errors = _errors(check_graph(spec))
        assert _codes(errors) == {"GRAPH301"}

    def test_zero_source_rate_is_warning(self):
        findings = check_graph(_linear(source_rate=0.0))
        assert findings
        assert all(
            f.severity is Severity.WARNING for f in findings
        )
        assert _codes(findings) == {"GRAPH301"}

    def test_zero_long_run_rate_downstream_is_warning(self):
        spec = _spec(
            [
                NodeSpec("src", kind="source", max_rate=10.0),
                NodeSpec("drop", kind="filter", selectivity=0.0),
                NodeSpec("starved"),
                NodeSpec("out", kind="sink"),
            ],
            [("src", "drop"), ("drop", "starved"), ("starved", "out")],
        )
        findings = check_graph(spec)
        assert any(
            f.code == "GRAPH301" and "starved" in f.message
            for f in findings
        )
        assert _errors(findings) == []


class TestEnsureValidGraph:
    def test_raises_graph_error_with_codes(self):
        spec = _spec(
            [NodeSpec("a"), NodeSpec("b")],
            [("a", "b"), ("b", "a")],
        )
        with pytest.raises(GraphError) as exc:
            ensure_valid_graph(spec, name="bad-graph")
        assert "bad-graph" in str(exc.value)
        assert "[GRAPH101]" in str(exc.value)

    def test_warnings_do_not_raise(self):
        ensure_valid_graph(_linear(source_rate=0.0))

    def test_builtin_graphs_pass(self):
        for name in builtin_graph_names():
            ensure_valid_graph(build_graph(name), name=name)


class TestJsonSpecs:
    PIPELINE = {
        "name": "json-pipeline",
        "operators": [
            {"name": "src", "kind": "source", "rate": 500.0},
            {"name": "map", "kind": "map", "selectivity": 2.0},
            {"name": "out", "kind": "sink"},
        ],
        "edges": [["src", "map"], ["map", "out"]],
    }

    def test_load_from_mapping(self):
        spec = graph_spec_from_json(self.PIPELINE)
        assert spec.name == "json-pipeline"
        assert check_graph(spec) == []

    def test_load_from_string_and_file(self, tmp_path):
        text = json.dumps(self.PIPELINE)
        from_string = graph_spec_from_json(text)
        path = tmp_path / "pipeline.json"
        path.write_text(text)
        from_file = graph_spec_from_json(path)
        assert from_string == from_file

    def test_malformed_document_raises(self):
        with pytest.raises(AnalysisError):
            graph_spec_from_json("{not json")
        with pytest.raises(AnalysisError):
            graph_spec_from_json({"operators": "nope"})

    def test_non_utf8_file_raises(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(AnalysisError, match="could not load"):
            graph_spec_from_json(path)

    def test_deep_nesting_raises(self, tmp_path):
        nested = "[" * 100_000 + "]" * 100_000
        with pytest.raises(AnalysisError, match="nested too deeply"):
            graph_spec_from_json(nested)
        path = tmp_path / "graph.json"
        path.write_text(nested)
        with pytest.raises(AnalysisError, match="nested too deeply"):
            graph_spec_from_json(path)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("selectivity", "x"),
            ("selectivity", [2.0]),
            ("selectivity", True),
            pytest.param("selectivity", 10**400, id="selectivity-huge"),
            ("rate", "fast"),
            ("rate", {"per_s": 1}),
        ],
    )
    def test_non_numeric_field_names_operator_and_field(
        self, field, value
    ):
        doc = json.loads(json.dumps(self.PIPELINE))
        doc["operators"][1][field] = value
        with pytest.raises(AnalysisError, match=f"'map'.*'{field}'"):
            graph_spec_from_json(doc)

    @pytest.mark.parametrize("value", ["false", 0, None, [False]])
    def test_data_parallel_must_be_a_json_bool(self, value):
        doc = json.loads(json.dumps(self.PIPELINE))
        doc["operators"][1]["data_parallel"] = value
        with pytest.raises(AnalysisError, match="'map'.*'data_parallel'"):
            graph_spec_from_json(doc)

    def test_data_parallel_bool_is_kept(self):
        doc = json.loads(json.dumps(self.PIPELINE))
        doc["operators"][1]["data_parallel"] = False
        spec = graph_spec_from_json(doc)
        assert spec.nodes[1].data_parallel is False

    def test_semantic_problems_left_to_checker(self):
        doc = dict(self.PIPELINE)
        doc["edges"] = [["src", "map"], ["map", "src"]]
        spec = graph_spec_from_json(doc)
        assert "GRAPH101" in _codes(check_graph(spec))


class TestRegistry:
    def test_every_check_has_id_and_rationale(self):
        for rule in GRAPH_CHECKS:
            assert rule.id.startswith("GRAPH")
            assert rule.rationale


# ----------------------------------------------------------------------
# Property tests: the checker accepts every built-in workload graph and
# rejects any single-edge mutation that introduces a cycle or orphan.
# ----------------------------------------------------------------------

_BUILTIN = builtin_graph_names()


@st.composite
def _builtin_spec(draw):
    name = draw(st.sampled_from(_BUILTIN))
    graph = build_graph(name)
    return graph_spec_from_logical(graph, name=name)


@given(spec=_builtin_spec())
@settings(max_examples=25, deadline=None)
def test_property_builtin_graphs_are_clean(spec):
    assert _errors(check_graph(spec)) == []


@given(spec=_builtin_spec(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_property_added_back_edge_is_rejected(spec, data):
    edge = data.draw(st.sampled_from(list(spec.edges)))
    up, down = edge
    mutated = GraphSpec(
        nodes=spec.nodes,
        edges=spec.edges + ((down, up),),
        name=spec.name,
    )
    codes = _codes(_errors(check_graph(mutated)))
    # Reversing an existing edge yields a 2-cycle; if one endpoint is
    # a source/sink the kind-structure checks fire too. Either way the
    # graph must not pass.
    assert codes & {"GRAPH101", "GRAPH106", "GRAPH107"}


@given(spec=_builtin_spec())
@settings(max_examples=25, deadline=None)
def test_property_detached_operator_is_rejected(spec):
    mutated = GraphSpec(
        nodes=spec.nodes + (NodeSpec("detached", kind="map"),),
        edges=spec.edges,
        name=spec.name,
    )
    codes = _codes(_errors(check_graph(mutated)))
    assert {"GRAPH104", "GRAPH105"} <= codes
