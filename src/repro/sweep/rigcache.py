"""Disk-backed second level for the rig-level static-configuration memo.

The in-process memo in :mod:`repro.bitstream.generator` makes repeated rig
builds free *within* one process; sweep workers are separate processes, so
each would regenerate the same static image from scratch.  This cache
persists the memoized entries as ``.npz`` files named by the memo's content
address (device, region, seed) plus the package digest
(:func:`repro.checks.depfp.rig_fingerprint`), so any source edit turns
every entry into a miss, and a cold worker restores a rig's configuration
memory with one array load.

Same recovery policy as the result cache: a corrupted, truncated or
schema-mismatched entry is deleted and treated as a miss — the cache is
always rebuildable, so loading never raises.

Install on the generator with::

    from repro.bitstream import generator
    from repro.sweep.rigcache import RigCache

    generator.set_rig_cache(RigCache(cache_dir / "rigs"))

The setter indirection keeps the dependency pointing sweep -> bitstream,
never the other way around.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from ..checks import depfp
from .results_io import ensure_dir

#: Bump when the npz layout (or the keying discipline) changes; old
#: entries become misses.  3 = package-digest file key.
RIG_CACHE_SCHEMA = 3


class RigCache:
    """``key -> (frame data, written mask, write count)`` on disk."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.fingerprint = depfp.rig_fingerprint()
        self.loads = 0
        self.stores = 0
        self.invalidations = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}-{self.fingerprint[:20]}.npz"

    def load(self, key: str) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            with np.load(path) as bundle:
                if int(bundle["schema"]) != RIG_CACHE_SCHEMA:
                    raise ValueError("schema mismatch")
                data = np.asarray(bundle["data"], dtype=np.uint32)
                written = np.asarray(bundle["written"], dtype=bool)
                writes = int(bundle["writes"])
        except Exception:  # repro: noqa LINT007 (any corruption flavour means miss)
            # Corruption-as-miss: drop the entry and regenerate.
            self.invalidations += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.loads += 1
        return data, written, writes

    def store(self, key: str, data: np.ndarray, written: np.ndarray, writes: int) -> None:
        ensure_dir(self.root)
        path = self._path(key)
        tmp = path.with_suffix(".tmp.npz")
        try:
            np.savez_compressed(
                tmp,
                schema=np.int64(RIG_CACHE_SCHEMA),
                data=data,
                written=written,
                writes=np.int64(writes),
            )
            tmp.replace(path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        self.stores += 1
