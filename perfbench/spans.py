"""Span tracing for the benchmark, installed from outside the program.

The benchmark wraps the program's public entry points -- the layer
boundaries listed in :data:`BOUNDARIES` -- and records, per span name,
the number of calls, the inclusive seconds, the self seconds (inclusive
minus the time covered by nested spans) and the seconds each parent span
spent waiting on it.  Spans are aggregated in memory as they close, so a
pass with hundreds of thousands of bus requests costs a few dictionaries,
not a list of records.

Wrapping happens at every binding site: a function imported by name into
another module (``from ..engine.batch import run_steady``) is replaced in
that module too, and a method is replaced on every class of the hierarchy
that defines its own copy.  Nothing under ``src/`` is edited; the
wrappers only observe arguments and return values, and install no trace
hook, so the program takes the same fast or reference paths as untraced.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

SpanName = Union[str, Callable[[tuple], str]]
Amount = Optional[Callable[[tuple, object], int]]


@dataclass(frozen=True)
class Boundary:
    """One public entry point wrapped in a span."""

    span: SpanName
    module: str
    #: ``"function"`` or ``"Class.method"``.
    attr: str
    #: Units of work one call performs (default 1), from (args, result).
    amount: Amount = None
    #: Also wrap overrides in every subclass of the class.
    subclasses: bool = False


def _scenario_span(args: tuple) -> str:
    return f"scenario.{args[0].name}"


def _trials(args: tuple, result) -> int:
    return int(result.trials)


def _requests(args: tuple, result) -> int:
    return int(len(args[0]))


BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("sweep.cache_load", "repro.sweep.cache", "ResultCache.load"),
    Boundary("sweep.cache_store", "repro.sweep.cache", "ResultCache.store"),
    Boundary("checks.graph", "repro.checks.depfp", "package_graph"),
    Boundary("checks.fingerprint", "repro.checks.depfp", "scenario_fingerprint"),
    Boundary("checks.fingerprint", "repro.checks.depfp", "rig_fingerprint"),
    Boundary(_scenario_span, "repro.scenarios.registry", "Scenario.run"),
    Boundary("core.load", "repro.core.reconfig", "ReconfigManager.load"),
    Boundary("core.load", "repro.core.reconfig", "ReconfigManager.clear"),
    Boundary("core.load_robust", "repro.core.reconfig", "ReconfigManager.load_robust"),
    Boundary("core.scrub", "repro.core.reconfig", "ReconfigManager.scrub"),
    Boundary("periph.icap", "repro.periph.hwicap", "OpbHwIcap.access"),
    Boundary("periph.readback", "repro.periph.hwicap", "OpbHwIcap.drain_readback"),
    Boundary("periph.readback", "repro.periph.hwicap", "OpbHwIcap.readback_frame"),
    Boundary("bus.request", "repro.bus.bus", "Bus.request", subclasses=True),
    Boundary("bus.burst", "repro.bus.bus", "Bus.request_burst", subclasses=True),
    Boundary("bus.bridge", "repro.bus.bridge", "PlbOpbBridge.access"),
    Boundary("engine.run_steady", "repro.engine.batch", "run_steady"),
    *(
        Boundary("cpu.io", "repro.cpu.ppc405", f"Ppc405.{name}", subclasses=True)
        for name in ("io_read", "io_write", "io_read_batch", "io_write_batch",
                     "load_word", "store_word")
    ),
    *(
        Boundary("dock.dma", "repro.dock.plb_dock", f"PlbDock.{name}")
        for name in ("dma_write_block", "dma_drain_fifo", "access_burst")
    ),
    *(
        Boundary("kernels", "repro.kernels.base", f"BaseKernel.{name}", subclasses=True)
        for name in ("consume", "consume_block", "produce")
    ),
    Boundary("bitstream.static_init", "repro.bitstream.generator",
             "initialize_static_configuration"),
    *(
        Boundary("bitstream.link", "repro.bitstream.bitlinker", f"BitLinker.{name}")
        for name in ("link", "link_differential", "clear_bitstream")
    ),
    Boundary("faults.calibrate", "repro.faults.montecarlo", "calibrate_rig"),
    Boundary("faults.classify", "repro.faults.montecarlo", "classify_batch", amount=_trials),
    Boundary("faults.reference", "repro.faults.montecarlo", "classify_reference"),
    Boundary("faults.reference", "repro.faults.montecarlo", "trials_from_batch"),
    Boundary("faults.trial", "repro.faults.campaign", "run_trial"),
    Boundary("serve.calibrate", "repro.serve.costtable", "calibrate"),
    Boundary("serve.simulate", "repro.serve.engine", "simulate", amount=_requests),
    Boundary("workloads.trace", "repro.workloads.traces", "make_trace"),
)


class SpanStats:
    """Aggregate of every closed span with one name."""

    __slots__ = ("calls", "total", "self_time", "units")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.units = 0

    def as_dict(self) -> Dict[str, float]:
        return {"calls": self.calls, "total_s": self.total,
                "self_s": self.self_time, "units": self.units}


class Tracer:
    """In-memory span aggregator shared by every wrapper it creates."""

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStats] = {}
        #: (parent span, child span) -> inclusive seconds of the child.
        self.edges: Dict[Tuple[str, str], float] = {}
        self._stack: List[list] = []

    def reset(self) -> None:
        self.stats.clear()
        self.edges.clear()

    def wrap(self, span: SpanName, fn: Callable, amount: Amount) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        stats = self.stats
        edges = self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span if isinstance(span, str) else span(args)
            frame = [name, 0.0]  # [span name, seconds covered by child spans]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = SpanStats()
                entry.calls += 1
                entry.total += elapsed
                entry.self_time += elapsed - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                edge = (parent[0] if parent is not None else "<pass>", name)
                edges[edge] = edges.get(edge, 0.0) + elapsed
            entry.units += 1 if amount is None else amount(args, result)
            return result

        return traced

    def snapshot(self) -> Dict[str, object]:
        return {
            "spans": {name: s.as_dict() for name, s in sorted(self.stats.items())},
            "edges": [[p, c, t] for (p, c), t in sorted(self.edges.items())],
        }


def _repro_modules() -> List[object]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


def _classes_defining(root: type, method: str, subclasses: bool) -> List[type]:
    found, seen, todo = [], set(), [root]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if method in cls.__dict__:
            found.append(cls)
        if subclasses:
            todo.extend(cls.__subclasses__())
    return found


class Patch:
    """Replacements installed at every binding site, undone by :meth:`remove`."""

    def __init__(self) -> None:
        self._functions: List[Tuple[Callable, Callable]] = []
        self._methods: List[Tuple[type, str, object]] = []

    def function(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.attr`` and every module-level alias of it."""
        original = getattr(importlib.import_module(module), attr)
        replacement = make(original)
        bound = 0
        for mod in _repro_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    bound += 1
        if not bound:
            raise RuntimeError(f"no binding site for {module}.{attr}")
        self._functions.append((original, replacement))

    def method(self, module: str, attr: str, make: Callable[[Callable], Callable],
               subclasses: bool = False) -> None:
        """Replace ``Class.method`` on every class that defines its own copy."""
        class_name, method = attr.split(".")
        root = getattr(importlib.import_module(module), class_name)
        classes = _classes_defining(root, method, subclasses)
        if not classes:
            raise RuntimeError(f"no class defines {module}.{attr}")
        for cls in classes:
            original = cls.__dict__[method]
            setattr(cls, method, make(original))
            self._methods.append((cls, method, original))

    def remove(self) -> None:
        """Restore every original, including aliases bound after install."""
        for original, replacement in self._functions:
            for mod in _repro_modules():
                for key, value in list(vars(mod).items()):
                    if value is replacement:
                        setattr(mod, key, original)
        for cls, method, original in reversed(self._methods):
            setattr(cls, method, original)
        self._functions.clear()
        self._methods.clear()


def install(tracer: Tracer) -> Patch:
    """Wrap every boundary in a span recorded by ``tracer``."""
    patch = Patch()
    for b in BOUNDARIES:
        make = functools.partial(tracer.wrap, b.span, amount=b.amount)
        if "." in b.attr:
            patch.method(b.module, b.attr, make, subclasses=b.subclasses)
        else:
            patch.function(b.module, b.attr, make)
    return patch


def import_boundary_modules() -> None:
    """Import every module that defines or re-binds a boundary, so that the
    binding-site scan sees all of them before anything is wrapped."""
    for name in ("repro.scenarios", "repro.sweep.cli", "repro.cli", "repro.kernels"):
        importlib.import_module(name)
    for b in BOUNDARIES:
        importlib.import_module(b.module)
