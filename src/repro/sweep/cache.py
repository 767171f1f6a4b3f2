"""Content-addressed, on-disk cache for scenario results.

A scenario is pure (LINT006-enforced), so its result is fully determined
by its inputs and the code that computes it — and those are exactly the
cache key:

1. the **fingerprint** (:func:`repro.checks.depfp.scenario_fingerprint`):
   SHA-256 over the package digest — one hash of every ``*.py`` under
   ``src/repro`` — and the scenario body's own source hash.  Any source
   edit invalidates every entry; scenarios defined outside the package
   (tests) are covered by their body hash;
2. the **resolved parameters** (canonical JSON) — every distinct
   parameterisation caches separately (smoke and full runs never mix);
3. the cache schema number — envelope-format changes are fenced here (see
   ``docs/SWEEP.md`` for the policy).

Entries are versioned JSON envelopes under ``benchmarks/results/cache/``
by default.  A corrupted or mismatched entry is deleted and treated as a
miss — the cache can always be rebuilt from scratch, so recovery never
raises.  Telemetry (hits/misses/stores/invalidations) feeds the sweep
report, and :meth:`ResultCache.explain` diffs the current key components
against the stored envelopes to attribute a miss (``repro sweep
--explain``).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from .. import __version__
from ..checks import depfp
from ..scenarios.registry import Scenario
from ..scenarios.result import ScenarioResult, _canon
from .results_io import ensure_dir

#: Bump when the envelope layout or the keying changes; old entries become
#: misses.  4 = package-digest fingerprint.
CACHE_SCHEMA = 4


def canonical_params(params: Mapping[str, object]) -> str:
    """Stable JSON for hashing: sorted keys, tuples already canonicalised."""
    return json.dumps({k: _canon(v) for k, v in params.items()}, sort_keys=True)


def key_components(scenario: Scenario, params: Mapping[str, object]) -> Dict[str, object]:
    """Every component of the content address, by name — hashed into the
    key, stored in the envelope, and diffed by :meth:`ResultCache.explain`."""
    return {
        "fingerprint": depfp.scenario_fingerprint(scenario),
        "params": json.loads(canonical_params(params)),
        "cache_schema": CACHE_SCHEMA,
    }


def _key_of(components: Mapping[str, object]) -> str:
    material = json.dumps(components, sort_keys=True)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def cache_key(scenario: Scenario, params: Mapping[str, object]) -> str:
    """The content address of one (scenario, params) result."""
    return _key_of(key_components(scenario, params))


def _summarize(value: object) -> str:
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return text[:16] + "…" if len(text) > 17 else text


@dataclass
class CacheTelemetry:
    """Hit/miss accounting for one sweep run."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidated: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidated": self.invalidated,
        }


@dataclass
class ResultCache:
    """Directory-backed content-addressed store of scenario results."""

    root: Path
    telemetry: CacheTelemetry = field(default_factory=CacheTelemetry)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # -- addressing --------------------------------------------------------
    def _address(
        self, scenario: Scenario, params: Mapping[str, object]
    ) -> Tuple[Dict[str, object], str, Path]:
        """``(key components, key, entry path)``, derived once per call."""
        components = key_components(scenario, params)
        key = _key_of(components)
        # Scenario name in the filename keeps the directory human-navigable;
        # the key suffix is the actual content address.
        return components, key, self.root / f"{scenario.name}-{key[:20]}.json"

    def entry_path(self, scenario: Scenario, params: Mapping[str, object]) -> Path:
        return self._address(scenario, params)[2]

    # -- read --------------------------------------------------------------
    def load(
        self, scenario: Scenario, params: Mapping[str, object]
    ) -> Optional[Tuple[ScenarioResult, float]]:
        """Cached ``(result, original_host_seconds)`` or ``None`` (miss).

        Any malformed entry — unreadable file, bad JSON, schema or key
        mismatch, unparseable result — is deleted and reported as a miss.
        """
        _, key, path = self._address(scenario, params)
        if not path.exists():
            self.telemetry.misses += 1
            return None
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
            if envelope.get("schema") != CACHE_SCHEMA:
                raise ValueError(f"cache schema {envelope.get('schema')!r}")
            if envelope.get("key") != key:
                raise ValueError("cache key mismatch")
            result = ScenarioResult.from_dict(envelope["result"])
            host_seconds = float(envelope.get("host_seconds", 0.0))
        except Exception:  # repro: noqa LINT007 (any corruption flavour means miss)
            # Corrupted entry: drop it so the next run regenerates cleanly.
            try:
                path.unlink()
            except OSError:
                pass
            self.telemetry.invalidated += 1
            self.telemetry.misses += 1
            return None
        self.telemetry.hits += 1
        return result, host_seconds

    # -- write -------------------------------------------------------------
    def store(
        self,
        scenario: Scenario,
        params: Mapping[str, object],
        result: ScenarioResult,
        host_seconds: float,
    ) -> Path:
        """Persist one result atomically.  Each writer renames its own temp
        file into place, so concurrent same-key writers never collide (both
        write identical bytes; the last rename wins)."""
        ensure_dir(self.root)
        components, key, path = self._address(scenario, params)
        envelope = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "scenario": scenario.name,
            "params": components["params"],
            "key_components": components,
            "repro_version": __version__,
            "host_seconds": host_seconds,
            "result": result.to_dict(),
        }
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(envelope, indent=2, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        self.telemetry.stores += 1
        return path

    # -- explain -----------------------------------------------------------
    def explain(self, scenario: Scenario, params: Mapping[str, object]) -> List[str]:
        """Attribute a miss: diff the current key components against every
        stored entry for this scenario (``repro sweep --explain``)."""
        current = key_components(scenario, params)
        entries = sorted(self.root.glob(f"{scenario.name}-*.json")) if self.root.exists() else []
        if not entries:
            return ["no cached entry (cold cache for this scenario)"]
        lines: List[str] = []
        for path in entries:
            try:
                envelope = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                lines.append(f"{path.name}: unreadable entry")
                continue
            if envelope.get("schema") != CACHE_SCHEMA:
                lines.append(
                    f"{path.name}: schema {envelope.get('schema')!r} != {CACHE_SCHEMA} "
                    "(stale envelope format)"
                )
                continue
            stored = envelope.get("key_components")
            if not isinstance(stored, dict):
                lines.append(f"{path.name}: entry predates key_components (re-stored on next run)")
                continue
            changed = [
                key
                for key in sorted(set(stored) | set(current))
                if stored.get(key) != current.get(key)
            ]
            if not changed:
                lines.append(f"{path.name}: key components identical (this entry hits)")
                continue
            for key in changed:
                lines.append(
                    f"{path.name}: {key} changed "
                    f"({_summarize(stored.get(key))} -> {_summarize(current.get(key))})"
                )
        return lines

    # -- maintenance -------------------------------------------------------
    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        if not self.root.exists():
            return 0
        removed = 0
        for entry in self.root.glob("*.json"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        return removed
