"""The parallel-safety analyzer: pickle, shared state, reduction order.

The guarantees the chaos/vector stack makes — serial-vs-parallel
byte-identity of campaign scorecards, crash-safe resume equivalence,
object-vs-vector bit-identity — rest on three source-level conventions
that used to live only in prose:

1. **Pickle safety** (``REPRO2xx``). Values crossing the process
   boundary (``CampaignCellSpec.controller_factory``, the
   ``ChaosWorkload`` factory fields) must be picklable: module-level
   callables or :func:`functools.partial` over them. A lambda or a
   closure fails at submission time deep inside a 100-cell campaign.
2. **Worker shared state** (``REPRO3xx``). Code reachable from a
   worker entry point (``run_campaign_cell`` and friends — marked with
   a ``# repro: worker-entry`` pragma or registered in
   :data:`WORKER_ENTRY_POINTS`) must not write module-level mutable
   state: each pool worker mutates its *own* copy, so the write is
   silently lost in parallel runs and serial/parallel equivalence
   breaks without raising.
3. **Reduction order** (``REPRO4xx``). Modules declared
   equivalence-sensitive (``# repro: equivalence-sensitive`` pragma or
   :data:`EQUIVALENCE_SENSITIVE_MODULES`) promise bit-identical
   results against a sequential oracle (docs/performance.md);
   commutativity-assuming reductions — ``np.sum`` (pairwise blocking),
   ``math.fsum``, accumulation in a set-ordered loop — silently change
   the floating-point result.

All three families ride the shared Rule/Diagnostic machinery: same
``# repro: allow[RULE]`` suppressions, same ``--select/--ignore`` and
JSON output through ``repro lint`` (see :mod:`repro.analysis.driver`).

Process-boundary sinks are declarative — :func:`register_sink` adds
one entry when a future seam (the ROADMAP's remote executor) grows a
new pickle boundary. :func:`ensure_parallel_safe` is the runtime twin
of the static REPRO2xx pass, called at construction time by
``CampaignExecutor`` and ``ChaosWorkload`` the way simulator
construction calls ``ensure_valid_graph``.
"""

from __future__ import annotations

import ast
import functools
import inspect
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.analysis.pysource import (
    Aliases,
    SourcePragmas,
    iter_python_files,
    module_name_for,
    parse_pragmas,
    parse_suppressions,
    suppressed,
    unordered_reason,
)
from repro.analysis.report import Diagnostic, Severity
from repro.analysis.rules import (
    AnalysisError,
    Rule,
    RuleRegistry,
    register_family,
)

PICKLE_SAFETY = register_family(
    "pickle-safety",
    "values crossing the process boundary must pickle (module-level "
    "callables, not lambdas/closures/bound methods)",
)
WORKER_SHARED_STATE = register_family(
    "worker-shared-state",
    "code reachable from a worker entry point must not write "
    "module-level mutable state",
)
REDUCTION_ORDER = register_family(
    "reduction-order",
    "equivalence-sensitive modules must keep sequential, "
    "order-stable reductions",
)

#: Registry of every parallel-safety rule.
PARALLEL_RULES = RuleRegistry()

LAMBDA_FACTORY = PARALLEL_RULES.register(Rule(
    id="REPRO201",
    name="lambda-factory",
    summary="a lambda flows into a process-boundary sink",
    rationale=(
        "lambdas pickle by qualified name, which a lambda does not "
        "have; the campaign dies at submission time — use a "
        "module-level function or functools.partial of one"
    ),
    family=PICKLE_SAFETY,
))
LOCAL_FACTORY = PARALLEL_RULES.register(Rule(
    id="REPRO202",
    name="local-factory",
    summary=(
        "a locally-defined function/class flows into a "
        "process-boundary sink"
    ),
    rationale=(
        "functions and classes defined inside another function "
        "(closures) pickle by qualified name and fail to import in "
        "the worker; hoist the definition to module level"
    ),
    family=PICKLE_SAFETY,
))
BOUND_METHOD_FACTORY = PARALLEL_RULES.register(Rule(
    id="REPRO203",
    name="bound-method-factory",
    summary=(
        "a bound instance method flows into a process-boundary sink"
    ),
    rationale=(
        "a bound method drags its whole instance across the process "
        "boundary (or fails to pickle outright); pass a module-level "
        "function, or a functools.partial closing over picklable data"
    ),
    family=PICKLE_SAFETY,
))
UNPICKLABLE_PARTIAL = PARALLEL_RULES.register(Rule(
    id="REPRO204",
    name="unpicklable-partial",
    summary=(
        "functools.partial over an unpicklable callable or argument "
        "flows into a process-boundary sink"
    ),
    rationale=(
        "partial() pickles its inner callable and captured arguments; "
        "wrapping a lambda or local function only moves the pickle "
        "failure one level deeper"
    ),
    family=PICKLE_SAFETY,
))

WORKER_GLOBAL_WRITE = PARALLEL_RULES.register(Rule(
    id="REPRO301",
    name="worker-global-write",
    summary=(
        "assigns a module global (global statement) in code "
        "reachable from a worker entry point"
    ),
    rationale=(
        "each pool worker rebinds its own copy of the global; the "
        "parent never sees the write, so serial and parallel runs "
        "diverge without raising"
    ),
    family=WORKER_SHARED_STATE,
))
WORKER_MODULE_MUTATION = PARALLEL_RULES.register(Rule(
    id="REPRO302",
    name="worker-module-mutation",
    summary=(
        "mutates a module-level container in code reachable from a "
        "worker entry point"
    ),
    rationale=(
        "appends/updates to module-level containers land in the "
        "worker's private copy and are silently lost when the pool "
        "result is merged; thread state through arguments and return "
        "values instead"
    ),
    family=WORKER_SHARED_STATE,
))
WORKER_CLASS_STATE = PARALLEL_RULES.register(Rule(
    id="REPRO303",
    name="worker-class-state",
    summary=(
        "writes a class attribute in code reachable from a worker "
        "entry point"
    ),
    rationale=(
        "class attributes are module state by another name: a worker "
        "writing ClassName.attr (or cls.attr) mutates its private "
        "interpreter only, breaking serial/parallel equivalence"
    ),
    family=WORKER_SHARED_STATE,
))

BUILTIN_SUM_ARRAY = PARALLEL_RULES.register(Rule(
    id="REPRO401",
    name="builtin-sum-array",
    summary="builtins.sum() over an ndarray-typed value",
    rationale=(
        "sum() over an ndarray accumulates in array storage order "
        "with no documented pairing guarantee; the equivalence "
        "contract wants an explicit sequential sum over .tolist() "
        "(see docs/performance.md)"
    ),
    family=REDUCTION_ORDER,
))
PAIRWISE_REDUCTION = PARALLEL_RULES.register(Rule(
    id="REPRO402",
    name="pairwise-reduction",
    summary=(
        "np.sum/math.fsum-style reduction over a float array in an "
        "equivalence-sensitive module"
    ),
    rationale=(
        "numpy reductions use pairwise blocking and fsum uses exact "
        "compensation — both produce different bits than the "
        "sequential left-to-right sum the engine's outputs are "
        "frozen on"
    ),
    family=REDUCTION_ORDER,
))
SET_ORDER_ACCUMULATION = PARALLEL_RULES.register(Rule(
    id="REPRO403",
    name="set-order-accumulation",
    summary=(
        "accumulates across a set-ordered loop in an "
        "equivalence-sensitive module"
    ),
    rationale=(
        "float accumulation is not commutative in IEEE754; folding "
        "over a hash-ordered set gives a different bit pattern every "
        "process, voiding the bit-identity contract"
    ),
    family=REDUCTION_ORDER,
))


# ----------------------------------------------------------------------
# Process-boundary sink registry (REPRO2xx)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ProcessBoundarySink:
    """One callable whose arguments cross a process boundary.

    ``factory_params`` maps parameter name to its 0-based positional
    index (-1 for keyword-only); those arguments must be picklable
    callables. ``container_params`` are parameters taking a dict/list
    *of* factories, checked element-wise.
    """

    qualname: str
    factory_params: Mapping[str, int] = field(default_factory=dict)
    container_params: FrozenSet[str] = frozenset()
    description: str = ""

    @property
    def callable_name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


#: Declarative sink registry, keyed by fully-qualified callable name.
#: Future pickle seams (the ROADMAP's remote executor) register one
#: entry here instead of growing a new ad-hoc check.
SINK_REGISTRY: Dict[str, ProcessBoundarySink] = {}


def register_sink(sink: ProcessBoundarySink) -> ProcessBoundarySink:
    """Register a process-boundary sink (idempotent for equal specs)."""
    existing = SINK_REGISTRY.get(sink.qualname)
    if existing is not None and existing != sink:
        raise AnalysisError(
            f"sink {sink.qualname!r} already registered differently"
        )
    SINK_REGISTRY[sink.qualname] = sink
    return sink


register_sink(ProcessBoundarySink(
    qualname="repro.faults.campaigns.CampaignCellSpec",
    factory_params={"controller_factory": 7},
    description=(
        "cell specs are pickled whole when CampaignExecutor submits "
        "them to execute_cell on its pool workers"
    ),
))
register_sink(ProcessBoundarySink(
    qualname="repro.experiments.chaos.ChaosWorkload",
    factory_params={
        "graph_factory": 3,
        "runtime_factory": 4,
        "parallelism_factory": 5,
        "controllers_factory": 6,
    },
    description=(
        "workload factories end up inside CampaignCellSpec and cross "
        "into pool workers under --jobs N"
    ),
))


# ----------------------------------------------------------------------
# Worker-entry and equivalence-sensitivity registries
# ----------------------------------------------------------------------

#: Fully-qualified names of functions whose bodies run inside pool
#: workers. The ``# repro: worker-entry`` pragma is the in-file way to
#: extend this set.
WORKER_ENTRY_POINTS: Set[str] = {
    "repro.faults.campaigns.run_campaign_cell",
    "repro.faults.executor.execute_cell",
}


def register_worker_entry(qualname: str) -> str:
    """Register a worker entry point by fully-qualified name."""
    WORKER_ENTRY_POINTS.add(qualname)
    return qualname


#: Modules under the bit-identity contract of docs/performance.md.
#: The ``# repro: equivalence-sensitive`` pragma is the in-file way to
#: opt a module in.
EQUIVALENCE_SENSITIVE_MODULES: Set[str] = {
    "repro.engine.vectorized",
    "repro.engine.allocation",
    "repro.engine.metrics_manager",
    # The sweep sensitivity aggregator: marginals and margin tables are
    # byte-gated against a committed golden artifact, so its float
    # reductions must stay order-stable.
    "repro.sweeps.report",
    # The campaign executor owns the canonical telemetry/span fold that
    # makes inline, pool and resumed runs byte-identical.
    "repro.faults.executor",
}


def register_equivalence_sensitive(module: str) -> str:
    """Declare a module equivalence-sensitive by dotted name."""
    EQUIVALENCE_SENSITIVE_MODULES.add(module)
    return module


# ----------------------------------------------------------------------
# REPRO2xx: pickle-safety pass
# ----------------------------------------------------------------------

#: Symbol kinds for sink-argument classification.
_KIND_LAMBDA = "lambda"
_KIND_LOCAL_DEF = "local-def"
_KIND_LOCAL_CLASS = "local-class"
_KIND_MODULE_DEF = "module-def"
_KIND_OTHER = "other"


def _scope_symbols(body: Sequence[ast.stmt], local: bool) -> Dict[str, str]:
    """Symbol kinds bound by the *immediate* statements of a scope."""
    symbols: Dict[str, str] = {}
    def_kind = _KIND_LOCAL_DEF if local else _KIND_MODULE_DEF
    class_kind = _KIND_LOCAL_CLASS if local else _KIND_MODULE_DEF
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            symbols[stmt.name] = def_kind
        elif isinstance(stmt, ast.ClassDef):
            symbols[stmt.name] = class_kind
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            value = stmt.value
            for target in targets:
                if isinstance(target, ast.Name):
                    if isinstance(value, ast.Lambda):
                        symbols[target.id] = _KIND_LAMBDA
                    else:
                        symbols.setdefault(target.id, _KIND_OTHER)
    return symbols


class _SinkVisitor(ast.NodeVisitor):
    """Flags unpicklable values flowing into registered sinks."""

    def __init__(self, path: str) -> None:
        self._path = path
        self._aliases = Aliases()
        self._scopes: List[Dict[str, str]] = []
        self.findings: List[Diagnostic] = []

    def run(self, tree: ast.Module) -> None:
        self._scopes = [_scope_symbols(tree.body, local=False)]
        self.visit(tree)

    # -- scope bookkeeping ---------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        self._aliases.add_import(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._aliases.add_import_from(node)
        self.generic_visit(node)

    def _visit_function(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        self._scopes.append(_scope_symbols(node.body, local=True))
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _lookup(self, name: str) -> Optional[str]:
        for scope in reversed(self._scopes):
            kind = scope.get(name)
            if kind is not None:
                return kind
        return None

    # -- sink matching -------------------------------------------------

    def _sink_for(self, call: ast.Call) -> Optional[ProcessBoundarySink]:
        qualname = self._aliases.qualify(call.func)
        if qualname is None:
            return None
        for sink in SINK_REGISTRY.values():
            if qualname == sink.qualname or qualname == sink.callable_name:
                return sink
            if qualname.rsplit(".", 1)[-1] == sink.callable_name:
                return sink
        return None

    def visit_Call(self, node: ast.Call) -> None:
        sink = self._sink_for(node)
        if sink is not None:
            self._check_sink_call(node, sink)
        self.generic_visit(node)

    def _argument(
        self, call: ast.Call, name: str, position: int
    ) -> Optional[ast.expr]:
        for keyword in call.keywords:
            if keyword.arg == name:
                return keyword.value
        if 0 <= position < len(call.args):
            return call.args[position]
        return None

    def _check_sink_call(
        self, call: ast.Call, sink: ProcessBoundarySink
    ) -> None:
        for name, position in sink.factory_params.items():
            value = self._argument(call, name, position)
            if value is not None:
                self._classify(value, sink, name)
        for name in sorted(sink.container_params):
            value = self._argument(call, name, -1)
            if value is None:
                continue
            for element in self._container_values(value):
                self._classify(element, sink, name)

    def _container_values(self, value: ast.expr) -> List[ast.expr]:
        if isinstance(value, ast.Dict):
            return [v for v in value.values if v is not None]
        if isinstance(value, (ast.List, ast.Tuple)):
            return list(value.elts)
        if (
            isinstance(value, ast.Call)
            and self._aliases.qualify(value.func) == "dict"
        ):
            return [kw.value for kw in value.keywords if kw.arg]
        return []

    # -- classification ------------------------------------------------

    def _report(
        self, rule: Rule, node: ast.AST, message: str
    ) -> None:
        self.findings.append(Diagnostic(
            code=rule.id,
            message=message,
            path=self._path,
            line=getattr(node, "lineno", None),
            column=getattr(node, "col_offset", None),
            severity=Severity.ERROR,
        ))

    def _classify(
        self, value: ast.expr, sink: ProcessBoundarySink, param: str
    ) -> None:
        where = f"{sink.callable_name}(... {param}=)"
        if isinstance(value, ast.Lambda):
            self._report(
                LAMBDA_FACTORY, value,
                f"lambda passed to {where} cannot pickle across the "
                "process boundary; use a module-level function or "
                "functools.partial of one",
            )
            return
        if isinstance(value, ast.Name):
            kind = self._lookup(value.id)
            if kind == _KIND_LAMBDA:
                self._report(
                    LAMBDA_FACTORY, value,
                    f"{value.id!r} is bound to a lambda and passed to "
                    f"{where}; lambdas cannot pickle across the "
                    "process boundary",
                )
            elif kind in (_KIND_LOCAL_DEF, _KIND_LOCAL_CLASS):
                self._report(
                    LOCAL_FACTORY, value,
                    f"{value.id!r} is defined inside a function and "
                    f"passed to {where}; locally-defined callables "
                    "cannot pickle — hoist it to module level",
                )
            return
        if isinstance(value, ast.Attribute):
            base = value.value
            if isinstance(base, ast.Name) and base.id in ("self", "cls"):
                self._report(
                    BOUND_METHOD_FACTORY, value,
                    f"{base.id}.{value.attr} passed to {where} is a "
                    "bound method and would pickle its whole "
                    "instance; use a module-level function",
                )
            return
        if isinstance(value, ast.Call):
            qualname = self._aliases.qualify(value.func)
            if qualname in ("functools.partial", "partial"):
                self._classify_partial(value, sink, param)

    def _classify_partial(
        self, call: ast.Call, sink: ProcessBoundarySink, param: str
    ) -> None:
        where = f"{sink.callable_name}(... {param}=)"
        values: List[ast.expr] = list(call.args)
        values.extend(kw.value for kw in call.keywords)
        for value in values:
            bad: Optional[str] = None
            if isinstance(value, ast.Lambda):
                bad = "a lambda"
            elif isinstance(value, ast.Name):
                kind = self._lookup(value.id)
                if kind == _KIND_LAMBDA:
                    bad = f"{value.id!r} (bound to a lambda)"
                elif kind in (_KIND_LOCAL_DEF, _KIND_LOCAL_CLASS):
                    bad = f"{value.id!r} (locally defined)"
            elif isinstance(value, ast.Attribute):
                base = value.value
                if isinstance(base, ast.Name) and base.id in (
                    "self", "cls"
                ):
                    bad = f"bound method {base.id}.{value.attr}"
            if bad is not None:
                self._report(
                    UNPICKLABLE_PARTIAL, value,
                    f"functools.partial over {bad} passed to {where}; "
                    "the partial pickles its contents, so the pickle "
                    "failure is only deferred",
                )


# ----------------------------------------------------------------------
# REPRO3xx: worker-shared-state pass
# ----------------------------------------------------------------------

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "add",
    "discard", "update", "setdefault", "popitem", "sort", "reverse",
    "appendleft", "popleft",
})

#: Call targets producing mutable containers (module-level assignments
#: of these are shared mutable state).
_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "collections.defaultdict",
    "collections.deque", "collections.OrderedDict",
    "collections.Counter",
})


@dataclass
class _FunctionInfo:
    """One analyzable function: a module-level def or a method."""

    name: str
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    class_name: Optional[str] = None

    @property
    def display(self) -> str:
        if self.class_name:
            return f"{self.class_name}.{self.name}"
        return self.name


def _collect_functions(tree: ast.Module) -> Dict[str, _FunctionInfo]:
    functions: Dict[str, _FunctionInfo] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[stmt.name] = _FunctionInfo(stmt.name, stmt)
        elif isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    key = f"{stmt.name}.{member.name}"
                    functions[key] = _FunctionInfo(
                        member.name, member, class_name=stmt.name
                    )
    return functions


def _module_state_names(
    tree: ast.Module, aliases: Aliases
) -> Tuple[Set[str], Set[str]]:
    """``(mutable_names, class_names)`` bound at module level.

    ``mutable_names`` are names bound to container literals/factories
    (or imported bare names — conservatively treated as shared state);
    ``class_names`` are module-level classes (REPRO303 targets).
    """
    mutable: Set[str] = set()
    classes: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            classes.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            value = stmt.value
            if value is None:
                continue
            is_mutable = isinstance(
                value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                        ast.DictComp, ast.SetComp)
            )
            if isinstance(value, ast.Call):
                qualname = aliases.qualify(value.func)
                if qualname in _MUTABLE_FACTORIES:
                    is_mutable = True
            if is_mutable:
                for target in targets:
                    if isinstance(target, ast.Name):
                        mutable.add(target.id)
        elif isinstance(stmt, ast.ImportFrom) and stmt.module:
            for alias in stmt.names:
                bound = alias.asname or alias.name
                # An imported UPPER_CASE bare name is, by repo
                # convention, module state of the source module;
                # mutating it from a worker is the same hazard.
                if bound.isupper() or bound.startswith("_"):
                    mutable.add(bound)
    return mutable, classes


def _call_edges(
    info: _FunctionInfo, functions: Dict[str, _FunctionInfo]
) -> Set[str]:
    """Same-module call targets of one function (bare-name calls and
    ``self.method()`` within the same class)."""
    edges: Set[str] = set()
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in functions:
            edges.add(func.id)
        elif isinstance(func, ast.Attribute):
            base = func.value
            if (
                isinstance(base, ast.Name)
                and base.id in ("self", "cls")
                and info.class_name is not None
            ):
                key = f"{info.class_name}.{func.attr}"
                if key in functions:
                    edges.add(key)
    return edges


def _local_names(
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
) -> Set[str]:
    """Names bound locally anywhere inside a function (parameters and
    store-context names not declared global) — used to recognize
    shadowing of module-level names."""
    names: Set[str] = set()
    global_names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Global):
            global_names.update(sub.names)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = sub.args
            for arg in (
                list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)
            ):
                names.add(arg.arg)
            if args.vararg:
                names.add(args.vararg.arg)
            if args.kwarg:
                names.add(args.kwarg.arg)
        elif isinstance(sub, ast.Name) and isinstance(
            sub.ctx, ast.Store
        ):
            names.add(sub.id)
    return names - global_names


class _WorkerStatePass:
    """Reachability from worker entries + shared-state write scan."""

    def __init__(
        self,
        path: str,
        tree: ast.Module,
        aliases: Aliases,
        pragmas: SourcePragmas,
        module_name: str,
    ) -> None:
        self._path = path
        self._tree = tree
        self._aliases = aliases
        self._pragmas = pragmas
        self._module = module_name
        self.findings: List[Diagnostic] = []

    def run(self) -> None:
        functions = _collect_functions(self._tree)
        entries = self._entries(functions)
        if not entries:
            return
        reachable = self._reachable(functions, entries)
        mutable, classes = _module_state_names(
            self._tree, self._aliases
        )
        for key, entry in reachable.items():
            self._scan_function(functions[key], entry, mutable, classes)

    def _entries(
        self, functions: Dict[str, _FunctionInfo]
    ) -> List[str]:
        entries: List[str] = []
        for key, info in functions.items():
            qualname = f"{self._module}.{key}"
            if qualname in WORKER_ENTRY_POINTS:
                entries.append(key)
            elif self._pragmas.marks_worker_entry(info.node):
                entries.append(key)
        return sorted(entries)

    def _reachable(
        self,
        functions: Dict[str, _FunctionInfo],
        entries: Sequence[str],
    ) -> Dict[str, str]:
        """BFS over same-module call edges; maps each reachable
        function to the (first) entry point that reaches it."""
        origin: Dict[str, str] = {}
        queue: "deque[Tuple[str, str]]" = deque(
            (entry, entry) for entry in entries
        )
        while queue:
            key, entry = queue.popleft()
            if key in origin:
                continue
            origin[key] = entry
            for callee in sorted(
                _call_edges(functions[key], functions)
            ):
                if callee not in origin:
                    queue.append((callee, entry))
        return origin

    def _report(
        self, rule: Rule, node: ast.AST, message: str
    ) -> None:
        self.findings.append(Diagnostic(
            code=rule.id,
            message=message,
            path=self._path,
            line=getattr(node, "lineno", None),
            column=getattr(node, "col_offset", None),
            severity=Severity.ERROR,
        ))

    def _scan_function(
        self,
        info: _FunctionInfo,
        entry: str,
        mutable: Set[str],
        classes: Set[str],
    ) -> None:
        reached = (
            f"reachable from worker entry {entry!r}; pool workers "
            "mutate a private copy, so serial and parallel runs "
            "silently diverge"
        )
        locals_ = _local_names(info.node)
        global_names: Set[str] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                global_names.update(node.names)
        for node in ast.walk(info.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    self._check_write_target(
                        node, target, global_names, locals_, mutable,
                        classes, info, reached,
                    )
            elif isinstance(node, ast.Call):
                self._check_mutating_call(
                    node, locals_, mutable, reached
                )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in mutable
                        and target.value.id not in locals_
                    ):
                        self._report(
                            WORKER_MODULE_MUTATION, node,
                            f"del on module-level container "
                            f"{target.value.id!r} is {reached}",
                        )

    def _check_write_target(
        self,
        stmt: ast.stmt,
        target: ast.expr,
        global_names: Set[str],
        locals_: Set[str],
        mutable: Set[str],
        classes: Set[str],
        info: _FunctionInfo,
        reached: str,
    ) -> None:
        if isinstance(target, ast.Name):
            if target.id in global_names:
                self._report(
                    WORKER_GLOBAL_WRITE, stmt,
                    f"assignment to module global {target.id!r} is "
                    f"{reached}",
                )
        elif isinstance(target, ast.Subscript):
            base = target.value
            if (
                isinstance(base, ast.Name)
                and base.id in mutable
                and base.id not in locals_
            ):
                self._report(
                    WORKER_MODULE_MUTATION, stmt,
                    f"item write to module-level container "
                    f"{base.id!r} is {reached}",
                )
        elif isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name):
                if base.id == "cls" or base.id in classes:
                    owner = (
                        info.class_name
                        if base.id == "cls" and info.class_name
                        else base.id
                    )
                    self._report(
                        WORKER_CLASS_STATE, stmt,
                        f"write to class attribute "
                        f"{owner}.{target.attr} is {reached}",
                    )
            elif (
                isinstance(base, ast.Attribute)
                and base.attr == "__class__"
            ) or (
                isinstance(base, ast.Call)
                and isinstance(base.func, ast.Name)
                and base.func.id == "type"
            ):
                self._report(
                    WORKER_CLASS_STATE, stmt,
                    f"write to class attribute via "
                    f"{'type(...)' if isinstance(base, ast.Call) else '__class__'}"
                    f".{target.attr} is {reached}",
                )

    def _check_mutating_call(
        self,
        call: ast.Call,
        locals_: Set[str],
        mutable: Set[str],
        reached: str,
    ) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in MUTATING_METHODS:
            return
        base = func.value
        if (
            isinstance(base, ast.Name)
            and base.id in mutable
            and base.id not in locals_
        ):
            self._report(
                WORKER_MODULE_MUTATION, call,
                f"{base.id}.{func.attr}(...) mutates a module-level "
                f"container and is {reached}",
            )


# ----------------------------------------------------------------------
# REPRO4xx: reduction-order pass
# ----------------------------------------------------------------------

#: Annotation tokens that mark a value as an ndarray.
_ARRAYISH_ANNOTATIONS = frozenset({
    "FloatArray", "IntArray", "BoolArray", "ndarray", "NDArray",
    "ArrayLike",
})

#: numpy callables whose result order-depends on pairwise blocking.
_NUMPY_REDUCTIONS = frozenset({
    "numpy.sum", "numpy.nansum", "numpy.prod", "numpy.nanprod",
    "numpy.dot", "numpy.vdot", "numpy.inner", "numpy.matmul",
    "numpy.einsum", "numpy.mean", "numpy.nanmean",
})

_REDUCTION_METHODS = frozenset({"sum", "prod", "dot", "mean"})


def _annotation_is_arrayish(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            if node.id in _ARRAYISH_ANNOTATIONS:
                return True
        elif isinstance(node, ast.Attribute):
            if node.attr in _ARRAYISH_ANNOTATIONS:
                return True
        elif isinstance(node, ast.Constant) and isinstance(
            node.value, str
        ):
            if any(
                token in node.value
                for token in _ARRAYISH_ANNOTATIONS
            ):
                return True
    return False


def _collect_array_attrs(tree: ast.Module) -> Set[str]:
    """Attribute names annotated array-ish anywhere in the module —
    ``self.q_len: FloatArray`` makes ``.q_len`` tainted class-wide."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign) and _annotation_is_arrayish(
            node.annotation
        ):
            target = node.target
            if isinstance(target, ast.Attribute):
                names.add(target.attr)
    return names


def _arrayish_args(
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
) -> Set[str]:
    """Parameters of one function annotated array-ish. Variable taint
    is per-function: an annotation in one function must not taint the
    same name in its neighbours."""
    args = node.args
    every = (
        list(args.posonlyargs) + list(args.args)
        + list(args.kwonlyargs)
    )
    return {
        arg.arg
        for arg in every
        if _annotation_is_arrayish(arg.annotation)
    }


class _ReductionVisitor(ast.NodeVisitor):
    """Flags order-unstable reductions in an equivalence-sensitive
    module, driven by a light ndarray-taint inference."""

    def __init__(self, path: str, array_attrs: Set[str]) -> None:
        self._path = path
        self._aliases = Aliases()
        self._array_attrs = array_attrs
        self._scopes: List[Set[str]] = [set()]
        self.findings: List[Diagnostic] = []

    # -- taint ----------------------------------------------------------

    def _is_tainted(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return any(
                expr.id in scope for scope in self._scopes
            )
        if isinstance(expr, ast.Attribute):
            return expr.attr in self._array_attrs
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute) and func.attr == "tolist":
                return False
            qualname = self._aliases.qualify(func)
            if qualname is not None and qualname.startswith("numpy."):
                return True
            if isinstance(func, ast.Attribute):
                return self._is_tainted(func.value)
            return False
        if isinstance(expr, ast.BinOp):
            return self._is_tainted(expr.left) or self._is_tainted(
                expr.right
            )
        if isinstance(expr, ast.UnaryOp):
            return self._is_tainted(expr.operand)
        if isinstance(expr, ast.Subscript):
            return self._is_tainted(expr.value)
        if isinstance(expr, ast.IfExp):
            return self._is_tainted(expr.body) or self._is_tainted(
                expr.orelse
            )
        return False

    # -- bookkeeping -----------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        self._aliases.add_import(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._aliases.add_import_from(node)
        self.generic_visit(node)

    def _visit_function(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        self._scopes.append(_arrayish_args(node))
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if _annotation_is_arrayish(node.annotation) and isinstance(
            node.target, ast.Name
        ):
            self._scopes[-1].add(node.target.id)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        tainted = self._is_tainted(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if tainted:
                    self._scopes[-1].add(target.id)
                else:
                    # Rebinding to a plain value clears the taint
                    # (e.g. ``desires = [max(0.0, d) ...]``).
                    for scope in self._scopes:
                        scope.discard(target.id)
        self.generic_visit(node)

    def _report(
        self, rule: Rule, node: ast.AST, message: str
    ) -> None:
        self.findings.append(Diagnostic(
            code=rule.id,
            message=message,
            path=self._path,
            line=getattr(node, "lineno", None),
            column=getattr(node, "col_offset", None),
            severity=Severity.ERROR,
        ))

    # -- reduction checks ------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        qualname = self._aliases.qualify(node.func)
        if qualname == "sum" and node.args and self._is_tainted(
            node.args[0]
        ):
            self._report(
                BUILTIN_SUM_ARRAY, node,
                "sum() over an ndarray accumulates in unspecified "
                "order; use an explicit sequential sum over "
                ".tolist() (equivalence contract, "
                "docs/performance.md)",
            )
        elif qualname in _NUMPY_REDUCTIONS and any(
            self._is_tainted(arg) for arg in node.args
        ):
            self._report(
                PAIRWISE_REDUCTION, node,
                f"{qualname}() reduces with pairwise blocking and is "
                "not bit-identical to the sequential oracle; sum "
                "sequentially over .tolist() instead",
            )
        elif qualname == "math.fsum" and node.args and self._is_tainted(
            node.args[0]
        ):
            self._report(
                PAIRWISE_REDUCTION, node,
                "math.fsum() compensates exactly and produces "
                "different bits than the sequential left-to-right "
                "sum the engine's outputs are frozen on",
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _REDUCTION_METHODS
            and self._is_tainted(node.func.value)
        ):
            self._report(
                PAIRWISE_REDUCTION, node,
                f".{node.func.attr}() on an ndarray reduces with "
                "pairwise blocking; sum sequentially over .tolist() "
                "instead",
            )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        reason = unordered_reason(node.iter, self._aliases)
        if reason is not None:
            self._check_loop_accumulation(node, reason)
        self.generic_visit(node)

    def _check_loop_accumulation(
        self, loop: ast.For, reason: str
    ) -> None:
        for node in ast.walk(loop):
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Mult, ast.Sub)
            ):
                self._report(
                    SET_ORDER_ACCUMULATION, node,
                    f"accumulation inside a loop over {reason}: "
                    "IEEE754 accumulation is order-dependent, so the "
                    "result changes with PYTHONHASHSEED",
                )
            elif isinstance(node, ast.Assign):
                target = (
                    node.targets[0]
                    if len(node.targets) == 1
                    else None
                )
                if (
                    isinstance(target, ast.Name)
                    and isinstance(node.value, ast.BinOp)
                    and any(
                        isinstance(sub, ast.Name)
                        and sub.id == target.id
                        for sub in ast.walk(node.value)
                    )
                ):
                    self._report(
                        SET_ORDER_ACCUMULATION, node,
                        f"accumulation inside a loop over {reason}: "
                        "IEEE754 accumulation is order-dependent, so "
                        "the result changes with PYTHONHASHSEED",
                    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def collect_parallel_findings(
    source: str, path: str = "<string>"
) -> List[Diagnostic]:
    """Raw parallel-safety findings for one source string — every rule
    family, no suppression/select filtering (the driver applies those;
    it needs the raw set to spot stale allows).

    Syntax errors yield no findings here: the determinism linter
    already reports REPRO100 for the same file.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return []
    pragmas = parse_pragmas(source)
    module_name = (
        module_name_for(path) if path != "<string>" else "<string>"
    )

    aliases = Aliases()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.add_import(node)
        elif isinstance(node, ast.ImportFrom):
            aliases.add_import_from(node)

    findings: List[Diagnostic] = []

    sink_pass = _SinkVisitor(path)
    sink_pass.run(tree)
    findings.extend(sink_pass.findings)

    state_pass = _WorkerStatePass(
        path, tree, aliases, pragmas, module_name
    )
    state_pass.run()
    findings.extend(state_pass.findings)

    if (
        pragmas.equivalence_sensitive
        or module_name in EQUIVALENCE_SENSITIVE_MODULES
    ):
        reduction_pass = _ReductionVisitor(
            path, _collect_array_attrs(tree)
        )
        reduction_pass.visit(tree)
        findings.extend(reduction_pass.findings)

    return findings


def check_parallel_source(
    source: str, path: str = "<string>"
) -> List[Diagnostic]:
    """Parallel-safety findings with ``# repro: allow`` suppressions
    applied (no select/ignore — use the driver for the full surface)."""
    allowed = parse_suppressions(source)
    results: List[Diagnostic] = []
    for finding in collect_parallel_findings(source, path):
        rule = PARALLEL_RULES.get(finding.code)
        if finding.line is not None and suppressed(
            allowed, finding.line, rule
        ):
            continue
        results.append(finding)
    return results


def check_parallel_paths(
    paths: Sequence[Union[str, Path]],
) -> List[Diagnostic]:
    """Parallel-safety findings over files/directory trees."""
    findings: List[Diagnostic] = []
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        findings.extend(
            check_parallel_source(source, str(file_path))
        )
    return findings


# ----------------------------------------------------------------------
# ensure_parallel_safe: the construction-time twin
# ----------------------------------------------------------------------

def unpicklable_reason(value: object) -> Optional[str]:
    """Why ``value`` cannot cross a process boundary, or None.

    The runtime mirror of the static REPRO2xx pass: lambdas, locally
    defined functions/classes, bound instance methods, and partials
    wrapping any of those. Returns a ``[RULE] message`` string in the
    same format :func:`repro.analysis.graphcheck.ensure_valid_graph`
    uses.
    """
    if isinstance(value, functools.partial):
        inner = unpicklable_reason(value.func)
        if inner is None:
            for captured in list(value.args) + list(
                value.keywords.values()
            ):
                if callable(captured):
                    inner = unpicklable_reason(captured)
                    if inner is not None:
                        break
        if inner is not None:
            return (
                f"[{UNPICKLABLE_PARTIAL.id}] functools.partial over "
                f"an unpicklable value: {inner}"
            )
        return None
    if isinstance(value, Mapping):
        for key in value:
            inner = unpicklable_reason(value[key])
            if inner is not None:
                return f"{key!r}: {inner}"
        return None
    if inspect.ismethod(value):
        owner = value.__self__
        if not isinstance(owner, type):
            return (
                f"[{BOUND_METHOD_FACTORY.id}] bound method "
                f"{value.__qualname__!r} captures its instance and "
                "does not pickle; use a module-level function"
            )
    name = getattr(value, "__name__", None)
    qualname = getattr(value, "__qualname__", "") or ""
    if name == "<lambda>":
        return (
            f"[{LAMBDA_FACTORY.id}] lambdas pickle by qualified "
            "name, which a lambda does not have; use a module-level "
            "function or functools.partial of one"
        )
    if "<locals>" in qualname:
        return (
            f"[{LOCAL_FACTORY.id}] {qualname!r} is defined inside a "
            "function and cannot be imported by a worker process; "
            "hoist it to module level"
        )
    return None


def ensure_parallel_safe(
    value: object, *, context: str = "factory"
) -> object:
    """Reject values that cannot cross a process boundary.

    The construction-time mirror of ``ensure_valid_graph``: called by
    :class:`~repro.faults.executor.CampaignExecutor` before
    submitting cells and by ``ChaosWorkload`` registration, so the
    violation is reported where the value was built, not as a pickle
    traceback deep inside a campaign. Raises
    :class:`~repro.analysis.rules.AnalysisError`; returns ``value``
    unchanged when safe.
    """
    reason = unpicklable_reason(value)
    if reason is not None:
        raise AnalysisError(f"{context}: {reason}")
    return value


__all__ = [
    "EQUIVALENCE_SENSITIVE_MODULES",
    "MUTATING_METHODS",
    "PARALLEL_RULES",
    "ProcessBoundarySink",
    "SINK_REGISTRY",
    "WORKER_ENTRY_POINTS",
    "check_parallel_paths",
    "check_parallel_source",
    "collect_parallel_findings",
    "ensure_parallel_safe",
    "register_equivalence_sensitive",
    "register_sink",
    "register_worker_entry",
    "unpicklable_reason",
]
