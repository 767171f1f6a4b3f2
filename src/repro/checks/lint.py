"""Simulator-discipline linter for the :mod:`repro` codebase.

A small flake8-style pass over ``src/repro`` built on the stdlib ``ast``
module.  The rules encode the modelling contract documented in
``docs/MODELING.md`` §9 (determinism) and §8 (fast-path equivalence):

* **LINT001** — no wall-clock reads in the model.  Simulated time is the
  only clock; ``time.time()`` & friends make runs irreproducible.
* **LINT002** — no unseeded randomness.  Workload generators must thread
  an explicit seed so every run is bit-identical.
* **LINT003** — no bare ``assert`` for runtime invariants in library
  code.  Asserts vanish under ``python -O``; raise
  :class:`repro.errors.InvariantError` (or a sibling) instead.
* **LINT004** — no float arithmetic flowing into picosecond values.
  Timestamps are integer ps; an unrounded division assigned to a
  ``*_ps`` name (or passed as a ``*_ps`` argument) drifts simulated time.
* **LINT005** — fast-path discipline.  Code invoking the vectorized bus
  burst primitives (``request_burst``/``access_burst``) must be guarded
  through :mod:`repro.engine.fastpath` (or a local predicate over it),
  and nothing outside that module may read the ``REPRO_NO_FAST_PATH``
  environment variable directly.
* **LINT006** — scenario purity.  Functions registered with the
  ``@scenario(...)`` decorator are cached content-addressed by (source,
  params, version); wall-clock reads, ``global`` state, or mutation of
  module-level objects would make identical keys yield different
  results, so none may appear in a scenario body.
* **LINT007** — no swallowed broad excepts.  A ``except Exception``/
  ``except BaseException``/bare ``except:`` handler that never re-raises
  hides programming errors (the fault-injection subsystem exists to
  *exercise* error paths; silently eating them defeats it).  Catch the
  specific expected errors, or re-raise.
* **LINT008** — batch-phase purity.  The ``bulk`` callback handed to
  :func:`repro.engine.batch.run_steady` owns *data movement only*; the
  compiler charges time and statistics by extrapolation.  A bulk body
  that drives CPU/bus primitives or writes timing cursors double-charges
  the phase and silently breaks fast/slow equivalence.
* **LINT009** — serve-decision discipline.  ``decide_*`` admission
  kernels feed the scheduler, its test oracle and the result cache, so
  they must be pure functions of their cost arguments (no loops, RNG, clock or
  environment reads, no global state); and scenarios tagged ``serve``
  must not loop over per-request trace/outcome data in Python — that
  work belongs inside :mod:`repro.serve.engine`'s vectorized scheduler.

Per-line suppression: append ``# repro: noqa RULE-ID[,RULE-ID...]`` to
silence named rules on that line, or ``# repro: noqa`` to silence all.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from .diagnostics import CheckReport, Diagnostic, Severity, register_rule

register_rule(
    "LINT000",
    "unparseable-module",
    "A module that does not parse cannot be linted (or imported).",
)
register_rule(
    "LINT001",
    "wall-clock-in-model",
    "The simulator's only clock is simulated picoseconds; host-time reads "
    "make results depend on the machine running them.",
)
register_rule(
    "LINT002",
    "unseeded-randomness",
    "Unseeded or hardwired RNGs (random.*, numpy legacy global, "
    "default_rng() without a seed threaded from a parameter or "
    "derive_seed) break run-to-run determinism and cache keying; thread "
    "an explicit seed.",
)
register_rule(
    "LINT003",
    "bare-assert-in-library",
    "assert statements disappear under python -O, silently disabling the "
    "invariant; raise repro.errors.InvariantError instead.",
)
register_rule(
    "LINT004",
    "float-into-picoseconds",
    "Simulated time is integer ps; float arithmetic assigned into *_ps "
    "values accumulates drift and breaks equality-based tests.",
)
register_rule(
    "LINT005",
    "unguarded-fastpath",
    "Vectorized burst primitives must stay behind the repro.engine.fastpath "
    "gate so traces and the reference path remain byte-identical.",
)
register_rule(
    "LINT006",
    "impure-scenario",
    "Registered sweep scenarios must be deterministic-pure: the result "
    "cache keys on (source, params, version) only, so wall-clock reads or "
    "module-level mutable state would make cached results wrong.",
)
register_rule(
    "LINT007",
    "swallowed-broad-except",
    "Catching Exception/BaseException (or a bare except) without "
    "re-raising hides programming errors behind fault-handling code; "
    "catch the expected error types instead.",
)
register_rule(
    "LINT008",
    "engine-mutation-in-bulk-phase",
    "A run_steady bulk callback moves data only; the phase compiler "
    "extrapolates time and statistics, so engine-state mutation inside it "
    "double-charges the phase and breaks fast/slow equivalence.",
)
register_rule(
    "LINT009",
    "serve-decision-discipline",
    "decide_* admission kernels must be pure functions of their cost "
    "arguments (no loops, RNG, clock or environment reads, no global "
    "state), and serve-tagged scenarios must not loop over per-request "
    "trace/outcome data in Python — per-request work belongs inside the "
    "vectorized engine.",
)

#: Calls that read the host clock: root module name -> attribute names.
_WALL_CLOCK = {
    "time": {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "clock",
    },
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}

#: Names whose presence in a function counts as a fast-path guard.
_FASTPATH_GUARDS = {"fastpath", "fast_path_active", "_fast_ok", "fast_ok"}

#: Caller-side vectorized primitives that require a guard in scope.
_FASTPATH_PRIMITIVES = {"request_burst", "access_burst"}

#: Wrappers that coerce a float expression back to an integer.
_INT_COERCIONS = {"int", "round", "floor", "ceil", "len", "max", "min", "divmod"}

#: Decorator names that mark a function as a registered sweep scenario.
_SCENARIO_DECORATORS = {"scenario"}

#: Callees whose result counts as a threaded seed (LINT002): the
#: registry's deterministic seed-derivation helpers.
_SEED_DERIVERS_PREFIX = "derive_"


def _seed_threaded(node: ast.AST, tainted: Set[str]) -> bool:
    """Is this seed expression threaded from a parameter or ``derive_*``?

    Threaded = it references a tainted name (a parameter, or a local
    computed from one), calls a ``derive_seed``/``derive_rng_seed``-style
    helper, or reads object state (an attribute like ``self.seed`` —
    whoever stored it owns the threading).  A literal (or ``None``, which
    asks the OS for entropy) is not threaded.
    """
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id in tainted:
            return True
        if isinstance(child, ast.Attribute):
            return True
        if isinstance(child, ast.Call):
            callee = child.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(
                callee, "id", None
            )
            if name and name.startswith(_SEED_DERIVERS_PREFIX):
                return True
    return False


def _tainted_names(node) -> Set[str]:
    """Parameter names plus locals assigned from already-tainted values.

    Two propagation passes over the subtree's assignments — enough for the
    ``s = seed + 1; rng = default_rng(s)`` shapes that occur in practice.
    """
    args = node.args
    tainted: Set[str] = set()
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        tainted.add(arg.arg)
    if args.vararg:
        tainted.add(args.vararg.arg)
    if args.kwarg:
        tainted.add(args.kwarg.arg)
    for _ in range(2):
        for child in ast.walk(node):
            value = None
            targets: List[ast.AST] = []
            if isinstance(child, ast.Assign):
                value, targets = child.value, list(child.targets)
            elif isinstance(child, (ast.AnnAssign, ast.NamedExpr)):
                value, targets = child.value, [child.target]
            elif isinstance(child, (ast.For, ast.AsyncFor)):
                value, targets = child.iter, [child.target]
            if value is None:
                continue
            if _seed_threaded(value, tainted):
                for target in targets:
                    tainted.update(_bound_names(target))
    return tainted

#: Method names that mutate their receiver in place (LINT006).
_MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
    "sort",
    "reverse",
    "appendleft",
    "extendleft",
}

#: Engine primitives that advance time or charge statistics (LINT008).
#: The compiled fast path extrapolates both, so a ``bulk`` body calling
#: one of these charges the phase twice.  ``feed_words``/``drain_words``
#: are the sanctioned data-movement primitives and are deliberately
#: absent.
_ENGINE_MUTATORS = {
    "io_read",
    "io_write",
    "io_read_batch",
    "io_write_batch",
    "execute_cycles",
    "elapse_cycles",
    "elapse_ps",
    "request",
    "request_burst",
    "take_interrupt",
    "return_from_interrupt",
    "charge_stream_read",
    "charge_stream_write",
    "count",
    "record",
    "count_many",
    "record_many",
}

#: Attribute names whose assignment inside a bulk body rewrites a timing
#: cursor behind the compiler's back (LINT008).
_TIMING_CURSORS = {"now_ps"}
_TIMING_CURSOR_SUFFIX = "busy_until"

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\s+(?P<rules>[A-Z0-9,\s-]+))?", re.IGNORECASE)


def _parse_suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map line number -> suppressed rule IDs (``None`` = all rules)."""
    suppressions: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            suppressions[lineno] = None
        else:
            suppressions[lineno] = {r.strip().upper() for r in rules.split(",") if r.strip()}
    return suppressions


def _root_name(node: ast.AST) -> Optional[str]:
    """Leftmost name of an attribute chain (``np.random.default_rng`` -> np)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _attr_chain(node: ast.AST) -> List[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return list(reversed(parts))


def _base_name(node: ast.AST) -> Optional[str]:
    """Innermost name of an attribute/subscript chain (``a.b[0].c`` -> a)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _bound_names(target: ast.AST) -> Iterator[str]:
    """Names an assignment *target* binds.

    Only plain names and destructuring patterns bind; a subscript or
    attribute target mutates an existing object without binding anything.
    """
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _bound_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _bound_names(target.value)


def _module_level_names(tree: ast.Module) -> Set[str]:
    """Names bound by top-level assignments and imports (LINT006 targets)."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(_bound_names(target))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


#: Exception names considered too broad to catch-and-drop (LINT007).
_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _is_broad_handler(handler_type: Optional[ast.AST]) -> bool:
    """Is this ``except`` clause bare or catching Exception/BaseException?"""
    if handler_type is None:
        return True
    candidates = handler_type.elts if isinstance(handler_type, ast.Tuple) else [handler_type]
    for candidate in candidates:
        name = candidate.attr if isinstance(candidate, ast.Attribute) else getattr(
            candidate, "id", None
        )
        if name in _BROAD_EXCEPTIONS:
            return True
    return False


#: Callees whose result is per-request data (LINT009): the serve trace
#: generators, the engine entry point, and the scenarios' shared input
#: builder.  ``*_trace`` catches poisson_trace/bursty_trace/diurnal_trace
#: and future arrival models without enumeration.
_PER_REQUEST_SOURCES = {"simulate", "make_trace", "build_serve_inputs"}
_PER_REQUEST_SOURCE_SUFFIX = "_trace"

#: Function-name prefix marking an admission decision kernel (LINT009).
_DECISION_PREFIX = "decide_"


def _is_trace_source_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return bool(name) and (
        name in _PER_REQUEST_SOURCES or name.endswith(_PER_REQUEST_SOURCE_SUFFIX)
    )


def _per_request_tainted(node) -> Set[str]:
    """Locals holding per-request data: assigned from a trace source call,
    or aliased/projected (``lat = outcome.latency_ps``) from one.

    Deliberately does *not* propagate through other calls: a reducer like
    ``ServeReport.from_outcome(outcome)`` returns aggregates, and looping
    over those is fine.
    """
    tainted: Set[str] = set()
    for _ in range(2):
        for child in ast.walk(node):
            value = None
            targets: List[ast.AST] = []
            if isinstance(child, ast.Assign):
                value, targets = child.value, list(child.targets)
            elif isinstance(child, (ast.AnnAssign, ast.NamedExpr)):
                value, targets = child.value, [child.target]
            if value is None:
                continue
            if _is_trace_source_call(value) or _base_name(value) in tainted:
                for target in targets:
                    tainted.update(_bound_names(target))
    return tainted


def _scenario_tags(node) -> Set[str]:
    """Literal string tags in the function's ``@scenario(..., tags=(...))``."""
    tags: Set[str] = set()
    for dec in node.decorator_list:
        if not isinstance(dec, ast.Call):
            continue
        target = dec.func
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", None
        )
        if name not in _SCENARIO_DECORATORS:
            continue
        for keyword in dec.keywords:
            if keyword.arg != "tags":
                continue
            for child in ast.walk(keyword.value):
                if isinstance(child, ast.Constant) and isinstance(child.value, str):
                    tags.add(child.value)
    return tags


def _is_scenario_decorated(node) -> bool:
    """Does the function carry the registry's ``@scenario(...)`` marker?"""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute):
            name = target.attr
        else:
            name = getattr(target, "id", None)
        if name in _SCENARIO_DECORATORS:
            return True
    return False


def _local_bindings(node) -> Set[str]:
    """Every name the function binds locally (params, assigns, loops, ...)."""
    bound: Set[str] = set()
    args = node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        bound.add(arg.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    for child in ast.walk(node):
        if isinstance(child, ast.Assign):
            for target in child.targets:
                bound.update(_bound_names(target))
        elif isinstance(child, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            if isinstance(child.target, ast.Name):
                bound.add(child.target.id)
        elif isinstance(child, (ast.For, ast.AsyncFor)):
            bound.update(_bound_names(child.target))
        elif isinstance(child, ast.withitem) and child.optional_vars is not None:
            bound.update(_bound_names(child.optional_vars))
        elif isinstance(child, ast.comprehension):
            bound.update(_bound_names(child.target))
        elif isinstance(child, ast.ExceptHandler) and child.name:
            bound.add(child.name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if child is not node:
                bound.add(child.name)
    return bound


def _float_tainted(node: ast.AST) -> bool:
    """Does evaluating ``node`` plausibly produce a non-integer float?

    Conservative on purpose: true division and float literals taint; a
    call through an int-coercing wrapper (``round``, ``int``, ...) cleans;
    other calls are treated as clean (their return contract is theirs).
    """
    if isinstance(node, ast.Call):
        # Calls are black boxes: int coercions (round, int, ...) are clean
        # by contract, and other callees own their own return types.
        return False
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _float_tainted(node.left) or _float_tainted(node.right)
    if isinstance(node, ast.UnaryOp):
        return _float_tainted(node.operand)
    if isinstance(node, ast.IfExp):
        return _float_tainted(node.body) or _float_tainted(node.orelse)
    return False


def _bulk_callback_bodies(tree: ast.Module) -> List[ast.AST]:
    """Function bodies handed as the ``bulk`` argument to ``run_steady``.

    Collects inline lambdas directly, and resolves plain-name arguments to
    the module's def of that name (the overwhelmingly common shape: a
    nested ``def bulk(start, count)`` passed by name).
    """
    names: Set[str] = set()
    bodies: List[ast.AST] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if callee != "run_steady":
            continue
        bulk_arg: Optional[ast.AST] = node.args[3] if len(node.args) >= 4 else None
        for keyword in node.keywords:
            if keyword.arg == "bulk":
                bulk_arg = keyword.value
        if isinstance(bulk_arg, ast.Lambda):
            bodies.append(bulk_arg)
        elif isinstance(bulk_arg, ast.Name):
            names.add(bulk_arg.id)
        elif isinstance(bulk_arg, ast.IfExp):
            # ``bulk if use_bulk else None`` — resolve both arms.
            for arm in (bulk_arg.body, bulk_arg.orelse):
                if isinstance(arm, ast.Name):
                    names.add(arm.id)
                elif isinstance(arm, ast.Lambda):
                    bodies.append(arm)
    if names:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in names:
                    bodies.append(node)
    return bodies


def _scan_bulk_purity(tree: ast.Module, report: CheckReport, path: str) -> None:
    """LINT008: no engine-state mutation inside a run_steady bulk body."""
    hint = (
        "bulk callbacks move data only (feed_words/drain_words); the phase "
        "compiler charges time and stats by extrapolation"
    )
    for body in _bulk_callback_bodies(tree):
        label = getattr(body, "name", "<lambda>")
        for child in ast.walk(body):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                if child.func.attr in _ENGINE_MUTATORS:
                    report.add(
                        "LINT008",
                        f"bulk callback {label!r} calls engine mutator "
                        f".{child.func.attr}() inside a compiled phase",
                        file=path,
                        line=child.lineno,
                        hint=hint,
                    )
            elif isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    child.targets if isinstance(child, ast.Assign) else [child.target]
                )
                for target in targets:
                    if isinstance(target, ast.Attribute) and (
                        target.attr in _TIMING_CURSORS
                        or target.attr.endswith(_TIMING_CURSOR_SUFFIX)
                    ):
                        report.add(
                            "LINT008",
                            f"bulk callback {label!r} writes timing cursor "
                            f".{target.attr} inside a compiled phase",
                            file=path,
                            line=child.lineno,
                            hint=hint,
                        )


class _Visitor(ast.NodeVisitor):
    def __init__(
        self, path: str, report: CheckReport, module_names: Optional[Set[str]] = None
    ) -> None:
        self.path = path
        self.report = report
        self.in_fastpath_module = path.replace("\\", "/").endswith("engine/fastpath.py")
        self.module_names = module_names or set()
        #: Stack of per-function tainted-name sets (LINT002 seed threading);
        #: nested defs see their enclosing functions' taints (closures).
        self._taint_stack: List[Set[str]] = []

    # -- helpers ----------------------------------------------------------
    def _flag(self, rule: str, node: ast.AST, message: str, hint: Optional[str] = None) -> None:
        self.report.add(
            rule, message, file=self.path, line=getattr(node, "lineno", None), hint=hint
        )

    # -- LINT007 ----------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if _is_broad_handler(node.type) and not any(
            isinstance(child, ast.Raise) for child in ast.walk(node)
        ):
            caught = "bare except" if node.type is None else "except Exception"
            self._flag(
                "LINT007",
                node,
                f"{caught} handler swallows the error (no raise in its body)",
                hint="catch the specific expected errors, or re-raise",
            )
        self.generic_visit(node)

    # -- LINT003 ----------------------------------------------------------
    def visit_Assert(self, node: ast.Assert) -> None:
        self._flag(
            "LINT003",
            node,
            "bare assert used for a runtime invariant",
            hint="raise repro.errors.InvariantError (asserts vanish under python -O)",
        )
        self.generic_visit(node)

    # -- LINT001 / LINT002 / LINT005(b) ----------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute):
            chain = _attr_chain(node.func)
            root, attr = chain[0] if chain else None, node.func.attr
            if root in _WALL_CLOCK and attr in _WALL_CLOCK[root]:
                self._flag(
                    "LINT001",
                    node,
                    f"wall-clock read {'.'.join(chain)}()",
                    hint="use simulated time (cpu.now_ps / ClockDomain)",
                )
            if root == "random":
                self._flag(
                    "LINT002",
                    node,
                    f"call into the global random module ({'.'.join(chain)}())",
                    hint="use numpy.random.default_rng(seed) with an explicit seed",
                )
            if len(chain) >= 3 and chain[-2] == "random" and root in {"np", "numpy"}:
                if attr == "default_rng":
                    if not node.args and not node.keywords:
                        self._flag(
                            "LINT002",
                            node,
                            "default_rng() without a seed",
                            hint="pass an explicit seed for reproducible workloads",
                        )
                    else:
                        self._check_rng_seed(node)
                else:
                    self._flag(
                        "LINT002",
                        node,
                        f"legacy global numpy RNG ({'.'.join(chain)}())",
                        hint="use numpy.random.default_rng(seed)",
                    )
        # LINT002(b) on bare-name default_rng(...) (common `rng = default_rng(s)`
        # after `from numpy.random import default_rng`).
        if isinstance(node.func, ast.Name) and node.func.id == "default_rng":
            if not node.args and not node.keywords:
                self._flag(
                    "LINT002",
                    node,
                    "default_rng() without a seed",
                    hint="pass an explicit seed for reproducible workloads",
                )
            else:
                self._check_rng_seed(node)
        # LINT004 on keyword arguments named *_ps.
        for keyword in node.keywords:
            if keyword.arg and keyword.arg.endswith("_ps") and _float_tainted(keyword.value):
                self._flag(
                    "LINT004",
                    node,
                    f"float-valued expression passed as {keyword.arg}=",
                    hint="wrap in round() — simulated time is integer picoseconds",
                )
        self.generic_visit(node)

    def _check_rng_seed(self, node: ast.Call) -> None:
        """LINT002(c): a ``default_rng(seed)`` whose seed expression is not
        threaded from a parameter or a ``derive_*`` helper."""
        seed_expr: Optional[ast.AST] = node.args[0] if node.args else None
        for keyword in node.keywords:
            if keyword.arg in (None, "seed"):
                seed_expr = keyword.value
        if seed_expr is None:
            return
        tainted: Set[str] = set()
        for frame in self._taint_stack:
            tainted |= frame
        if not _seed_threaded(seed_expr, tainted):
            self._flag(
                "LINT002",
                node,
                "default_rng() seed is not threaded from a parameter or derive_seed",
                hint="pass the caller's seed (or derive_seed(base, label)) instead "
                "of a hardwired value",
            )

    def visit_Constant(self, node: ast.Constant) -> None:
        if (
            node.value == "REPRO_NO_FAST_PATH"  # repro: noqa LINT005
            and not self.in_fastpath_module
        ):
            self._flag(
                "LINT005",
                node,
                "direct reference to the REPRO_NO_FAST_PATH environment variable",
                hint="go through repro.engine.fastpath (enabled()/force()/disabled())",
            )

    # -- LINT004 on assignments ------------------------------------------
    def _check_ps_target(self, target: ast.AST, value: ast.AST) -> None:
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name and name.endswith("_ps") and _float_tainted(value):
            self._flag(
                "LINT004",
                value,
                f"float arithmetic assigned to picosecond value {name!r}",
                hint="wrap in round() — simulated time is integer picoseconds",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_ps_target(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_ps_target(node.target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        name = None
        if isinstance(node.target, ast.Name):
            name = node.target.id
        elif isinstance(node.target, ast.Attribute):
            name = node.target.attr
        if name and name.endswith("_ps") and (
            isinstance(node.op, ast.Div) or _float_tainted(node.value)
        ):
            self._flag(
                "LINT004",
                node,
                f"float arithmetic folded into picosecond value {name!r}",
                hint="wrap in round() — simulated time is integer picoseconds",
            )
        self.generic_visit(node)

    # -- LINT005(a): guard discipline per function ------------------------
    def _visit_function(self, node) -> None:
        calls_primitive = None
        references_guard = False
        for child in ast.walk(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                if child.func.attr in _FASTPATH_PRIMITIVES:
                    calls_primitive = calls_primitive or child
            if isinstance(child, ast.Attribute) and child.attr in _FASTPATH_GUARDS:
                references_guard = True
            if isinstance(child, ast.Name) and child.id in _FASTPATH_GUARDS:
                references_guard = True
        if calls_primitive is not None and not references_guard:
            self._flag(
                "LINT005",
                calls_primitive,
                f"function {node.name!r} invokes a vectorized burst primitive "
                "without a fast-path guard in scope",
                hint="gate the call on Bus.fast_path_active() / repro.engine.fastpath",
            )
        if _is_scenario_decorated(node):
            self._scan_scenario_purity(node)
            if "serve" in _scenario_tags(node):
                self._scan_serve_scenario(node)
        if node.name.startswith(_DECISION_PREFIX):
            self._scan_decision_purity(node)
        self._taint_stack.append(_tainted_names(node))
        try:
            self.generic_visit(node)
        finally:
            self._taint_stack.pop()

    # -- LINT006: scenario purity -----------------------------------------
    def _scan_scenario_purity(self, node) -> None:
        """Flag wall-clock reads and shared-state mutation in a scenario.

        Shared state = module-level bindings not shadowed by a local
        binding; reading them is fine, writing or mutating them is not.
        """
        shared = self.module_names - _local_bindings(node)
        hint = (
            "scenarios are cached by (source, params, version); keep all "
            "state local and all time simulated"
        )
        for child in ast.walk(node):
            if isinstance(child, ast.Global):
                self._flag(
                    "LINT006",
                    child,
                    f"scenario {node.name!r} declares global "
                    f"{', '.join(child.names)}",
                    hint=hint,
                )
            elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                chain = _attr_chain(child.func)
                root, attr = chain[0] if chain else None, child.func.attr
                if root in _WALL_CLOCK and attr in _WALL_CLOCK[root]:
                    self._flag(
                        "LINT006",
                        child,
                        f"scenario {node.name!r} reads the wall clock "
                        f"({'.'.join(chain)}())",
                        hint=hint,
                    )
                elif attr in _MUTATING_METHODS and _base_name(child.func.value) in shared:
                    self._flag(
                        "LINT006",
                        child,
                        f"scenario {node.name!r} mutates module-level "
                        f"{_base_name(child.func.value)!r} via .{attr}()",
                        hint=hint,
                    )
            elif isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    child.targets if isinstance(child, ast.Assign) else [child.target]
                )
                for target in targets:
                    if isinstance(target, (ast.Subscript, ast.Attribute)):
                        base = _base_name(target)
                        if base in shared:
                            self._flag(
                                "LINT006",
                                child,
                                f"scenario {node.name!r} writes into "
                                f"module-level {base!r}",
                                hint=hint,
                            )
            elif isinstance(child, ast.Delete):
                for target in child.targets:
                    base = _base_name(target)
                    if isinstance(target, (ast.Subscript, ast.Attribute)) and base in shared:
                        self._flag(
                            "LINT006",
                            child,
                            f"scenario {node.name!r} deletes from "
                            f"module-level {base!r}",
                            hint=hint,
                        )

    # -- LINT009: serve-decision discipline -------------------------------
    def _scan_decision_purity(self, node) -> None:
        """Flag state, loops, RNG and environment reads in a ``decide_*``
        kernel.  (Wall-clock reads are already LINT001 everywhere.)"""
        hint = (
            "decide_* kernels feed the scheduler, its test oracle and the "
            "result cache; keep them pure over their cost-table arguments"
        )
        for child in ast.walk(node):
            if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                kind = "while" if isinstance(child, ast.While) else "for"
                self._flag(
                    "LINT009",
                    child,
                    f"decision kernel {node.name!r} contains a {kind} loop",
                    hint=hint,
                )
            elif isinstance(child, (ast.Global, ast.Nonlocal)):
                self._flag(
                    "LINT009",
                    child,
                    f"decision kernel {node.name!r} declares "
                    f"{'global' if isinstance(child, ast.Global) else 'nonlocal'} "
                    f"{', '.join(child.names)}",
                    hint=hint,
                )
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(
                    func, "id", None
                )
                root = _root_name(func) if isinstance(func, ast.Attribute) else None
                if name == "default_rng" or root == "random":
                    self._flag(
                        "LINT009",
                        child,
                        f"decision kernel {node.name!r} draws randomness",
                        hint=hint,
                    )
                elif root == "os" and name == "getenv":
                    self._flag(
                        "LINT009",
                        child,
                        f"decision kernel {node.name!r} reads the environment",
                        hint=hint,
                    )
            elif isinstance(child, ast.Attribute) and child.attr == "environ":
                if _root_name(child) == "os":
                    self._flag(
                        "LINT009",
                        child,
                        f"decision kernel {node.name!r} reads os.environ",
                        hint=hint,
                    )

    def _scan_serve_scenario(self, node) -> None:
        """Flag Python loops over per-request data in a serve scenario."""
        tainted = _per_request_tainted(node)
        hint = (
            "per-request work belongs in repro.serve.engine's vectorized "
            "scheduler; reduce outcome arrays with NumPy instead"
        )
        for child in ast.walk(node):
            if isinstance(child, (ast.For, ast.AsyncFor)):
                iters = [child.iter]
            elif isinstance(child, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters = [gen.iter for gen in child.generators]
            else:
                continue
            for it in iters:
                if _is_trace_source_call(it) or _base_name(it) in tainted:
                    self._flag(
                        "LINT009",
                        it,
                        f"serve scenario {node.name!r} iterates per-request "
                        "trace/outcome data in Python",
                        hint=hint,
                    )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)


def lint_source(source: str, path: str = "<string>") -> List[Diagnostic]:
    """Lint one module's source; returns the surviving diagnostics."""
    report = CheckReport()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as err:
        report.add(
            "LINT000",
            f"could not parse: {err}",
            file=path,
            line=err.lineno,
            severity=Severity.ERROR,
        )
        return report.diagnostics
    _Visitor(path, report, module_names=_module_level_names(tree)).visit(tree)
    _scan_bulk_purity(tree, report, path)
    suppressions = _parse_suppressions(source)
    _unsuppressed = object()
    kept: List[Diagnostic] = []
    for diag in report.diagnostics:
        rules = suppressions.get(diag.line or -1, _unsuppressed)
        if rules is None:  # blanket ``# repro: noqa``
            continue
        if isinstance(rules, set) and diag.rule.upper() in rules:
            continue
        kept.append(diag)
    return kept


def lint_file(path: Path, display_root: Optional[Path] = None) -> List[Diagnostic]:
    source = path.read_text(encoding="utf-8")
    display = str(path)
    if display_root is not None:
        try:
            display = str(path.relative_to(display_root))
        except ValueError:
            pass
    return lint_source(source, display)


def iter_python_files(root: Path) -> Iterable[Path]:
    return sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)


def lint_paths(
    paths: Sequence[Path], display_root: Optional[Path] = None, report: Optional[CheckReport] = None
) -> CheckReport:
    """Lint files and/or directory trees into one report."""
    report = report if report is not None else CheckReport()
    for path in paths:
        files = iter_python_files(path) if path.is_dir() else [path]
        for file_path in files:
            report.diagnostics.extend(lint_file(file_path, display_root=display_root))
    return report


def package_root() -> Path:
    """The installed ``repro`` package directory (self-lint target)."""
    import repro

    return Path(repro.__file__).resolve().parent


def lint_package(report: Optional[CheckReport] = None) -> CheckReport:
    """Self-lint the whole :mod:`repro` package."""
    root = package_root()
    return lint_paths([root], display_root=root.parent, report=report)
