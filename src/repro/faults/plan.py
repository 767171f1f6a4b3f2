"""Deterministic, seeded fault injection for the reconfiguration datapath.

The paper's argument is that run-time partial reconfiguration is only as
usable as its loader is trustworthy: the ICAP CRC check, readback
verification and the static-region preservation proof are what turn
"writing frames" into "safely swapping hardware".  This module provides
the adversary those defences are exercised against: a :class:`FaultPlan`
describing *when* and *where* faults strike, with every random choice
derived from one explicit seed so a whole campaign replays bit-for-bit.

Injection sites (each a hook that costs a single ``is None`` check when no
plan is armed, so the fast paths measured by the perf benches are
untouched):

* **staged-bitstream SEUs** — single-event upsets flipping bits in the
  serialised word stream staged in external memory, before it is fed
  through the ICAP (hook in ``ReconfigManager._feed_through_icap``);
* **configuration-memory upsets** — bit flips in already-configured
  frames, either between loads (hook at the top of
  ``ReconfigManager.load``/``load_robust``/``clear``) or immediately
  after a commit lands (hook in ``OpbHwIcap._commit``);
* **forced commit failures** — the ICAP reports a CRC/commit error even
  for a well-formed stream (hook in ``OpbHwIcap._commit``);
* **DMA transfer errors** — a descriptor aborts with
  :class:`~repro.errors.TransferError` (hook in
  ``SgDmaEngine.run_chain``).

Each injector keys on the *ordinal* of its hook call, so "the fault hits
the first feed" is spelled ``seu_feeds={0}``.  Arm a plan on a system
with :func:`arm` / the :func:`armed` context manager; every strike is
recorded in :attr:`FaultPlan.injected` for campaign reporting.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Tuple

import numpy as np

from ..bitstream.packets import PacketReader
from ..errors import BitstreamError


def derive_rng_seed(seed: int, label: str) -> int:
    """Stable per-site RNG seed: SHA-256 over ``seed:label``.

    Python's builtin ``hash`` is salted per process, so the derivation
    goes through SHA-256 — the same (seed, label) pair yields the same
    stream on every run of every worker.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def payload_word_indices(words: np.ndarray) -> np.ndarray:
    """Indices of FDRI frame-payload words in a serialised stream.

    An SEU anywhere in the stream is *possible*, but a flip in a dummy or
    padding word is absorbed without consequence; campaigns that want a
    guaranteed-consequential upset aim at the CRC-covered frame payload.
    The positions come from :meth:`PacketReader.scan`'s run layout; a
    stream the reader rejects with :class:`BitstreamError` yields no
    candidates (never an error — this runs on data that is *about* to be
    corrupted anyway).
    """
    try:
        decoded = PacketReader(words).scan()
    except BitstreamError:
        return np.zeros(0, dtype=np.int64)
    parts = [
        (start + stride * np.arange(len(fars))[:, None] + np.arange(block.shape[1])).ravel()
        for (fars, block), (start, stride) in zip(decoded.runs, decoded.layout)
    ]
    if not parts:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(parts)


@dataclass(frozen=True)
class InjectedFault:
    """One fault actually delivered by an armed plan (campaign log entry)."""

    kind: str  #: "seu" | "memory-upset" | "commit-fail" | "dma-error"
    site: str  #: where it struck, e.g. ``staged[0]`` or ``sgdma[2]``
    detail: str = ""


class FaultPlan:
    """A seeded schedule of faults, applied through the component hooks.

    Parameters name the hook ordinals to strike (zero-based sets):

    ``seu_feeds``
        ICAP feed ordinals whose staged word stream gets ``seu_flips``
        random single-bit upsets (``seu_target='payload'`` confines the
        flips to CRC-covered FDRI payload words; ``'any'`` hits the whole
        stream, padding included).
    ``upset_loads``
        load ordinals at whose *entry* the configuration memory takes
        ``upset_flips`` random bit flips — an upset that happened some
        time since the previous load.
    ``post_commit_upsets``
        commit ordinals after which one of the just-written frames is
        upset — corruption the in-load readback verify must catch.
    ``commit_faults``
        commit ordinals forced to fail with a CRC/commit error.
    ``dma_descriptors``
        DMA descriptor ordinals aborted with a transfer error.
    """

    def __init__(
        self,
        seed: int,
        *,
        seu_feeds: Iterable[int] = (),
        seu_flips: int = 1,
        seu_target: str = "payload",
        upset_loads: Iterable[int] = (),
        upset_flips: int = 1,
        post_commit_upsets: Iterable[int] = (),
        post_commit_flips: int = 1,
        commit_faults: Iterable[int] = (),
        dma_descriptors: Iterable[int] = (),
    ) -> None:
        if seu_target not in ("payload", "any"):
            raise ValueError(f"seu_target must be 'payload' or 'any', got {seu_target!r}")
        self.seed = int(seed)
        self.seu_feeds: FrozenSet[int] = frozenset(int(i) for i in seu_feeds)
        self.seu_flips = int(seu_flips)
        self.seu_target = seu_target
        self.upset_loads: FrozenSet[int] = frozenset(int(i) for i in upset_loads)
        self.upset_flips = int(upset_flips)
        self.post_commit_upsets: FrozenSet[int] = frozenset(int(i) for i in post_commit_upsets)
        self.post_commit_flips = int(post_commit_flips)
        self.commit_faults: FrozenSet[int] = frozenset(int(i) for i in commit_faults)
        self.dma_descriptors: FrozenSet[int] = frozenset(int(i) for i in dma_descriptors)
        #: Every fault actually delivered, in strike order.
        self.injected: List[InjectedFault] = []
        self._feed_ordinal = 0
        self._load_ordinal = 0
        self._commit_ordinal = 0
        self._post_commit_ordinal = 0
        self._descriptor_ordinal = 0

    def _rng(self, label: str) -> np.random.Generator:
        return np.random.default_rng(derive_rng_seed(self.seed, label))

    # -- hook: staged-bitstream SEUs (pre-ICAP) ---------------------------
    def corrupt_staged(self, words: np.ndarray) -> np.ndarray:
        """Maybe flip bits in a staged word stream; returns the (possibly
        copied-and-corrupted) array.  Called once per ICAP feed."""
        index = self._feed_ordinal
        self._feed_ordinal += 1
        if index not in self.seu_feeds:
            return words
        corrupted = np.array(words, dtype=np.uint32, copy=True)
        if self.seu_target == "payload":
            candidates = payload_word_indices(corrupted)
        else:
            candidates = np.arange(corrupted.size)
        if candidates.size == 0:
            return words
        rng = self._rng(f"seu:{index}")
        for _ in range(self.seu_flips):
            word = int(candidates[int(rng.integers(candidates.size))])
            bit = int(rng.integers(32))
            corrupted[word] ^= np.uint32(1 << bit)
            self.injected.append(
                InjectedFault("seu", f"staged[{index}]", f"word {word} bit {bit}")
            )
        return corrupted

    # -- hook: configuration-memory upsets --------------------------------
    def take_load_upset(self, memory) -> List[object]:
        """Maybe upset the configuration memory at a load boundary.

        Returns the affected frame addresses.  Called once at the entry of
        every ``load``/``load_robust``/``clear``.
        """
        index = self._load_ordinal
        self._load_ordinal += 1
        if index not in self.upset_loads:
            return []
        return self._upset(memory, f"upset:{index}", self.upset_flips, site=f"load[{index}]")

    def take_post_commit_upset(self, memory, rows: np.ndarray) -> List[object]:
        """Maybe upset one of the frames a commit just wrote (their dense
        ``rows``, in stream order)."""
        index = self._post_commit_ordinal
        self._post_commit_ordinal += 1
        if index not in self.post_commit_upsets or not len(rows):
            return []
        return self._upset(
            memory,
            f"post-commit:{index}",
            self.post_commit_flips,
            site=f"commit[{index}]",
            rows=rows,
        )

    def upset_now(self, memory) -> List[object]:
        """Unscheduled upset, outside any load (scrub campaigns)."""
        index = self._load_ordinal  # share the derivation stream
        return self._upset(memory, f"upset-now:{index}", self.upset_flips, site="idle")

    def _upset(self, memory, label: str, flips: int, site: str, rows=None) -> List[object]:
        rng = self._rng(label)
        flipped = memory.inject_upset(rng, flips=flips, rows=rows)
        for address, word, bit in flipped:
            self.injected.append(
                InjectedFault("memory-upset", site, f"{address} word {word} bit {bit}")
            )
        return [address for address, _, _ in flipped]

    # -- hook: forced ICAP commit failures --------------------------------
    def take_commit_fault(self, site: str) -> bool:
        """True when this commit must be failed.  Called once per non-empty
        ICAP commit."""
        index = self._commit_ordinal
        self._commit_ordinal += 1
        if index not in self.commit_faults:
            return False
        self.injected.append(
            InjectedFault("commit-fail", f"{site}[{index}]", "forced CRC/commit failure")
        )
        return True

    # -- hook: DMA transfer errors ----------------------------------------
    def take_dma_fault(self, engine_name: str) -> bool:
        """True when this descriptor must abort.  Called once per
        descriptor on every armed DMA engine."""
        index = self._descriptor_ordinal
        self._descriptor_ordinal += 1
        if index not in self.dma_descriptors:
            return False
        self.injected.append(
            InjectedFault("dma-error", f"{engine_name}[{index}]", "injected transfer error")
        )
        return True

    # -- reporting ---------------------------------------------------------
    @property
    def faults_delivered(self) -> int:
        return len(self.injected)

    def summary(self) -> List[Tuple[str, str, str]]:
        return [(f.kind, f.site, f.detail) for f in self.injected]


# -- arming -----------------------------------------------------------------
def _dma_engines(system) -> List[object]:
    engines = []
    for dock in _docks(system):
        engine = getattr(dock, "dma", None)
        if engine is not None:
            engines.append(engine)
    return engines


def _docks(system) -> List[object]:
    docks = [system.dock]
    for extra in getattr(system, "extras", {}).values():
        dock = getattr(extra, "dock", None)
        if dock is not None and dock not in docks:
            docks.append(dock)
    return docks


def arm(system, plan: FaultPlan) -> FaultPlan:
    """Attach ``plan`` to every injection site of ``system``."""
    system.fault_plan = plan
    system.hwicap.fault_plan = plan
    for engine in _dma_engines(system):
        engine.fault_plan = plan
    return plan


def disarm(system) -> None:
    """Detach any armed plan; all hooks revert to zero-cost no-ops."""
    system.fault_plan = None
    system.hwicap.fault_plan = None
    for engine in _dma_engines(system):
        engine.fault_plan = None


class armed:
    """Context manager: arm a plan for the body, disarm on exit."""

    def __init__(self, system, plan: FaultPlan) -> None:
        self.system = system
        self.plan = plan

    def __enter__(self) -> FaultPlan:
        return arm(self.system, self.plan)

    def __exit__(self, *exc_info) -> None:
        disarm(self.system)
