"""Fault-load sampling over the whole configuration space.

DAVOS-style campaigns separate *fault-load generation* from trial
execution: all strike coordinates for a campaign are drawn up front,
vectorized and deterministic from one seed, and both trial executors
(the honest per-trial reference and the batched fast path in
:mod:`repro.faults.montecarlo`) consume exactly the same
:class:`FaultLoad`.  That is what makes "identical ``TrialResult``
streams for the same seeds" a meaningful equivalence claim — the two
paths share the random inputs and must agree on everything derived from
them.

The sampling space is a :class:`FaultSpace`, built once per calibrated
rig from :class:`~repro.fabric.config_memory.ConfigMemory`'s
written-mask, the golden configuration contents, the dynamic region's
row span, and the kernel's staged bitstream:

* ``essential`` — per-bit essentiality map ``E``: a configuration bit is
  *essential* when flipping it perturbs logic the design depends on.
  We take the union of (a) every bit *set* in the golden configuration
  data (a cleared bit that should be set always matters) and (b) the
  full row-span mask of the dynamic region over the region's written
  frames (any bit inside the reconfigurable rows is owned by the
  currently loaded kernel, set or cleared).  Static frames outside the
  region contribute only their set bits; unwritten frames contribute
  nothing.
* ``region_class`` — per-frame stratum label (``unused`` / ``static`` /
  ``dynamic``) used for stratified Wilson estimation and the heatmap.
* ``payload_indices`` — the staged stream's FDRI payload word positions
  (the CRC-covered words; header flips have parser-dependent semantics
  and are exercised by the PR 5 scenario instead).

Kinds sampled here
------------------
``upset``        strike anywhere in the full frame/bit space while the
                 kernel is resident (scrub-cycle classification).
``post-commit``  strike restricted to the frames the load just wrote
                 (caught by the robust loader's verify scan).
``seu``          flip one bit of a CRC-covered staged-stream payload
                 word (detected by the packet CRC, retried).
``commit``       force ``k`` consecutive commit failures,
                 ``k ∈ [1, max_attempts]`` (retry or software fallback).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..bitstream.bitstream import Bitstream
from ..errors import InvariantError
from ..fabric.config_memory import ConfigMemory
from ..fabric.region import Region
from .plan import derive_rng_seed, payload_word_indices

#: Kinds the Monte-Carlo campaigns run by default.  Distinct from the
#: PR 5 scenario's DEFAULT_KINDS: these are the closed-form-chargeable
#: kinds whose physics the calibrated outcome model covers.
DEFAULT_MC_KINDS: Tuple[str, ...] = ("upset", "post-commit", "seu", "commit")

#: Region-class codes (per-frame strata).
REGION_UNUSED = 0
REGION_STATIC = 1
REGION_DYNAMIC = 2
#: Pseudo-class for kinds whose outcome has no frame locality (commit).
REGION_ALL = 3

REGION_LABELS: Tuple[str, ...] = ("unused", "static", "dynamic", "all")

_POPCOUNT_TABLE = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.int64
)


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row population count of a 2-D uint32 array."""
    as_bytes = words.view(np.uint8).reshape(words.shape[0], -1)
    return _POPCOUNT_TABLE[as_bytes].sum(axis=1)


@dataclass(frozen=True)
class FaultSpace:
    """Everything the samplers and executors need to know about a rig.

    Immutable: built once per calibrated rig, then shared by every batch
    of every kind.  Construction makes every array read-only and counts
    the essential bits per frame once, so the count cannot go stale.
    """

    total_frames: int
    words_per_frame: int
    #: bool ``(total_frames,)`` — frames the configuration ever wrote.
    written_rows: np.ndarray
    #: int8 ``(total_frames,)`` — ``REGION_*`` stratum per frame.
    region_class: np.ndarray
    #: uint32 ``(total_frames, words_per_frame)`` — essential-bit map E.
    essential: np.ndarray
    #: int64 — dense rows the staged load writes, in bitstream order.
    load_rows: np.ndarray
    #: int64 — FDRI payload word positions within the staged stream.
    payload_indices: np.ndarray
    max_attempts: int
    #: Per-frame physical layout (heatmap rendering): block-type code
    #: (:class:`~repro.fabric.frames.BlockType` value), column/major, minor.
    frame_blocks: np.ndarray = None
    frame_cols: np.ndarray = None
    frame_minors: np.ndarray = None
    _essential_counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        counts = popcount_rows(self.essential)
        counts.setflags(write=False)
        object.__setattr__(self, "_essential_counts", counts)

    @property
    def total_bits(self) -> int:
        return self.total_frames * self.words_per_frame * 32

    def essential_counts(self) -> np.ndarray:
        """Essential-bit population per frame, ``(total_frames,)``, read-only."""
        return self._essential_counts

    def frame_vulnerability(self) -> np.ndarray:
        """Analytic per-frame vulnerability: essential bits / frame bits.

        This is the estimator's ground truth — a uniformly sampled
        strike on frame ``f`` is critical with exactly this probability,
        so campaign estimates must converge here as trials grow.
        """
        bits_per_frame = self.words_per_frame * 32
        return self.essential_counts() / float(bits_per_frame)

    def analytic_vulnerability(self, region: Optional[int] = None) -> float:
        """Essential fraction of the whole space (or one region class)."""
        counts = self.essential_counts()
        if region is None:
            return float(counts.sum()) / float(self.total_bits)
        mask = self.region_class == region
        frames = int(np.count_nonzero(mask))
        if frames == 0:
            return 0.0
        return float(counts[mask].sum()) / float(frames * self.words_per_frame * 32)


def essential_bit_map(
    memory: ConfigMemory, region: Region
) -> Tuple[np.ndarray, np.ndarray]:
    """Derive ``(essential, region_class)`` from a configured memory.

    Must be called with the *golden* configuration loaded (after a
    successful robust load): essentiality is defined relative to the
    contents scrubbing restores.  Uses the counter-silent accessors —
    deriving the map is analysis, not simulated bus traffic.
    """
    geometry = memory.geometry
    total = geometry.frame_count()
    written = memory.written_mask().copy()
    data = memory.data_rows(np.arange(total, dtype=np.int64))
    essential = np.where(written[:, None], data, np.uint32(0)).astype(np.uint32)

    region_rows = region.frame_rows
    row_mask = geometry.row_mask(region.rect.row, region.rect.row_end)
    written_region_rows = region_rows[written[region_rows]]
    essential[written_region_rows] |= row_mask[np.newaxis, :]

    region_class = np.full(total, REGION_UNUSED, dtype=np.int8)
    region_class[written] = REGION_STATIC
    dynamic = np.zeros(total, dtype=bool)
    dynamic[region_rows] = True
    region_class[dynamic & written] = REGION_DYNAMIC
    return essential, region_class


def build_fault_space(
    memory: ConfigMemory,
    region: Region,
    staged: Bitstream,
    max_attempts: int,
) -> FaultSpace:
    """Assemble the sampling space for one calibrated rig.

    ``staged`` is the kernel's linked partial bitstream — the same
    stream ``load_robust`` feeds through the ICAP, so its FDRI payload
    words are exactly the CRC-covered strike targets for ``seu`` trials
    and its frame set is the ``post-commit`` strike set.
    """
    geometry = memory.geometry
    essential, region_class = essential_bit_map(memory, region)
    load_rows = geometry.rows_of_fars(staged.fars)
    payload = payload_word_indices(staged.to_words())
    expected = staged.payload_words
    if payload.size != expected:
        raise InvariantError(
            f"staged stream carries {payload.size} FDRI payload words; "
            f"expected {expected} for {staged.frame_count} frames"
        )
    order = geometry.frame_order()
    return FaultSpace(
        total_frames=geometry.frame_count(),
        words_per_frame=geometry.words_per_frame,
        written_rows=memory.written_mask().copy(),
        region_class=region_class,
        essential=essential,
        load_rows=np.asarray(load_rows, dtype=np.int64),
        payload_indices=np.asarray(payload, dtype=np.int64),
        max_attempts=int(max_attempts),
        frame_blocks=np.array([int(a.block) for a in order], dtype=np.int8),
        frame_cols=np.array([a.major for a in order], dtype=np.int16),
        frame_minors=np.array([a.minor for a in order], dtype=np.int16),
    )


@dataclass(frozen=True)
class FaultLoad:
    """One kind's sampled strike coordinates for a whole campaign.

    Columnar and immutable: executors index into these arrays, they
    never draw randomness of their own.
    """

    kind: str
    trials: int
    #: int32 — the kind-level sampling seed (recorded on every trial).
    seed: int
    #: Memory strikes (``upset`` / ``post-commit``): dense frame row,
    #: word index, bit index.
    rows: Optional[np.ndarray] = None
    words: Optional[np.ndarray] = None
    #: Bit index — shared by memory strikes and ``seu`` stream flips.
    bits: Optional[np.ndarray] = None
    #: ``seu``: ordinal into :attr:`FaultSpace.payload_indices`.
    stream_pos: Optional[np.ndarray] = None
    #: ``commit``: forced consecutive commit failures, 1..max_attempts.
    fail_counts: Optional[np.ndarray] = None


def sample_fault_load(
    space: FaultSpace, kind: str, trials: int, seed: int
) -> FaultLoad:
    """Draw a kind's full campaign fault load, vectorized.

    One RNG stream per ``(seed, kind)`` via the same SHA-256 seed
    derivation every injector uses, so loads are independent across
    kinds, reproducible across processes, and identical for both
    executors.
    """
    if trials <= 0:
        raise InvariantError(f"fault load needs trials >= 1, got {trials}")
    kind_seed = derive_rng_seed(seed, f"montecarlo:{kind}") & 0x7FFFFFFF
    rng = np.random.default_rng(kind_seed)
    if kind == "upset":
        return FaultLoad(
            kind=kind,
            trials=trials,
            seed=kind_seed,
            rows=rng.integers(space.total_frames, size=trials),
            words=rng.integers(space.words_per_frame, size=trials),
            bits=rng.integers(32, size=trials),
        )
    if kind == "post-commit":
        picks = rng.integers(space.load_rows.size, size=trials)
        return FaultLoad(
            kind=kind,
            trials=trials,
            seed=kind_seed,
            rows=space.load_rows[picks],
            words=rng.integers(space.words_per_frame, size=trials),
            bits=rng.integers(32, size=trials),
        )
    if kind == "seu":
        return FaultLoad(
            kind=kind,
            trials=trials,
            seed=kind_seed,
            stream_pos=rng.integers(space.payload_indices.size, size=trials),
            bits=rng.integers(32, size=trials),
        )
    if kind == "commit":
        return FaultLoad(
            kind=kind,
            trials=trials,
            seed=kind_seed,
            fail_counts=rng.integers(1, space.max_attempts + 1, size=trials),
        )
    raise InvariantError(
        f"unknown Monte-Carlo fault kind {kind!r}; "
        f"expected one of {DEFAULT_MC_KINDS}"
    )


def sample_fault_loads(
    space: FaultSpace, kinds: Sequence[str], trials: int, seed: int
) -> Dict[str, FaultLoad]:
    """Fault loads for every kind of a campaign, keyed by kind."""
    return {kind: sample_fault_load(space, kind, trials, seed) for kind in kinds}
