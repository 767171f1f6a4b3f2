"""Named, pure scenario registry.

Every table and ablation of the paper's evaluation is registered here as
a **scenario**: a pure function ``params -> ScenarioResult`` with a
stable name, tags, and explicit default parameters.  The pytest benches
are thin wrappers over this registry, and the sweep orchestrator
(:mod:`repro.sweep`) fans the same registry out over a process pool.

Purity contract (enforced by LINT006 in :mod:`repro.checks.lint`):

* no wall-clock reads — simulated picoseconds are the only clock;
* no module-level mutable state — a scenario builds everything it
  touches, so runs are order- and process-independent;
* all randomness flows from explicit integer parameters (defaults match
  the paper benches), so identical inputs give byte-identical results.

That contract is what makes the content-addressed result cache sound:
a scenario's output is fully determined by (source fingerprint, params,
package version), which is exactly the cache key.
"""

from __future__ import annotations

import hashlib
import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import ReproError
from .result import ScenarioResult


class ScenarioError(ReproError):
    """A scenario was registered or invoked incorrectly."""


ScenarioFn = Callable[..., ScenarioResult]


@dataclass(frozen=True)
class Scenario:
    """One registered scenario: a pure, parameterised evaluation unit."""

    name: str
    fn: ScenarioFn
    title: str = ""
    tags: Tuple[str, ...] = ()
    #: Full-fidelity defaults — byte-identical to the paper benches.
    params: Mapping[str, object] = field(default_factory=dict)
    #: Overrides applied by ``--smoke`` for a quick, cheap pass.
    smoke_params: Mapping[str, object] = field(default_factory=dict)

    def resolve_params(
        self, overrides: Optional[Mapping[str, object]] = None, smoke: bool = False
    ) -> Dict[str, object]:
        """Defaults, optionally smoke-reduced, then explicit overrides."""
        resolved = dict(self.params)
        if smoke:
            resolved.update(self.smoke_params)
        if overrides:
            unknown = set(overrides) - set(resolved)
            if unknown:
                raise ScenarioError(
                    f"scenario {self.name!r} has no parameter(s) "
                    f"{sorted(unknown)}; known: {sorted(resolved)}"
                )
            resolved.update(overrides)
        return resolved

    def run(
        self, overrides: Optional[Mapping[str, object]] = None, smoke: bool = False
    ) -> ScenarioResult:
        """Execute the scenario with resolved parameters."""
        result = self.fn(**self.resolve_params(overrides, smoke=smoke))
        if not isinstance(result, ScenarioResult):
            raise ScenarioError(
                f"scenario {self.name!r} returned {type(result).__name__}, "
                "expected ScenarioResult"
            )
        return result

    def source_fingerprint(self) -> str:
        """SHA-256 over the scenario function's source text.

        Hashed together with the package digest into the cache key's
        fingerprint, so scenario bodies defined outside ``src/repro``
        (tests) are covered too (see ``docs/SWEEP.md``).

        When the source is unavailable (dynamically defined scenarios,
        e.g. in tests), the fingerprint falls back to the function's
        identity *and behaviour*: module, qualname and compiled code
        material.  Never ``repr(self.fn)`` — that embeds the object's
        memory address, which changes per process and would make cache
        keys nondeterministic.
        """
        try:
            source = inspect.getsource(self.fn)
        except (OSError, TypeError):  # dynamically defined (tests)
            source = "\n".join(
                [
                    getattr(self.fn, "__module__", "") or "",
                    getattr(self.fn, "__qualname__", "") or "",
                    _code_material(getattr(self.fn, "__code__", None)),
                ]
            )
        return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _code_material(code) -> str:
    """Deterministic text describing a code object's behaviour.

    Bytecode, names, and constants (nested code objects recursed) — every
    part is stable across processes, unlike ``repr`` of the function.
    """
    if code is None:
        return "<no-code>"
    consts: List[str] = []
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            consts.append(_code_material(const))
        else:
            consts.append(repr(const))
    return "|".join(
        [
            code.co_name,
            code.co_code.hex(),
            ",".join(code.co_names),
            ",".join(code.co_varnames),
            ";".join(consts),
        ]
    )


#: Process-wide registry: scenario name -> Scenario.
_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(
    name: str,
    fn: ScenarioFn,
    *,
    title: str = "",
    tags: Iterable[str] = (),
    params: Optional[Mapping[str, object]] = None,
    smoke_params: Optional[Mapping[str, object]] = None,
) -> Scenario:
    """Register a scenario function under a unique stable name."""
    if name in _REGISTRY:
        raise ScenarioError(f"scenario {name!r} already registered")
    entry = Scenario(
        name=name,
        fn=fn,
        title=title or name,
        tags=tuple(tags),
        params=dict(params or {}),
        smoke_params=dict(smoke_params or {}),
    )
    _REGISTRY[name] = entry
    return entry


def scenario(
    name: str,
    *,
    title: str = "",
    tags: Iterable[str] = (),
    params: Optional[Mapping[str, object]] = None,
    smoke_params: Optional[Mapping[str, object]] = None,
) -> Callable[[ScenarioFn], ScenarioFn]:
    """Decorator form of :func:`register_scenario` (returns ``fn`` unchanged).

    The decorator name is load-bearing: LINT006 keys on it to find the
    functions whose purity it must enforce.
    """

    def wrap(fn: ScenarioFn) -> ScenarioFn:
        register_scenario(
            name, fn, title=title, tags=tags, params=params, smoke_params=smoke_params
        )
        return fn

    return wrap


def get_scenario(name: str) -> Scenario:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ScenarioError(f"unknown scenario {name!r}; known: {known}") from None


def all_scenarios(tags: Optional[Iterable[str]] = None) -> List[Scenario]:
    """Every registered scenario sorted by name, optionally tag-filtered."""
    wanted = set(tags or ())
    entries = [_REGISTRY[key] for key in sorted(_REGISTRY)]
    if wanted:
        entries = [e for e in entries if wanted & set(e.tags)]
    return entries


def run_scenario(
    name: str,
    overrides: Optional[Mapping[str, object]] = None,
    smoke: bool = False,
) -> ScenarioResult:
    """Convenience: resolve and run a scenario by name."""
    return get_scenario(name).run(overrides, smoke=smoke)


def derive_seed(base: int, name: str) -> int:
    """Deterministic per-scenario seed: stable across processes and runs.

    Python's builtin ``hash`` is salted per process, so the derivation
    goes through SHA-256 — the same (base, name) pair yields the same
    seed on every worker of every run.
    """
    digest = hashlib.sha256(f"{base}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")
