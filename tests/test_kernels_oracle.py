"""The kernels' block datapaths against the word-at-a-time oracles.

Each shipped kernel and its per-word reference in ``tests/oracles/kernels.py``
run the same random program: data cut at random block boundaries and mixed
with one-word writes, control writes (restarts, parameters, flushes,
finalisation), unknown offsets and resets.  After every step the two must
agree on the emitted words in order, on every register, and on which call
raises :class:`KernelError` with which message; the state after a raise is
compared by the steps that follow it.  The oracles themselves are pinned
against RFC 3174, ``hashlib`` and recorded lookup2 digests.
"""

import hashlib
from typing import Callable, NamedTuple, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.kernels import (
    BlendKernel,
    BrightnessKernel,
    FadeKernel,
    JenkinsHashKernel,
    PatternMatchKernel,
    Sha1Kernel,
    lookup2,
    sha1,
)
from repro.kernels import image_ops, jenkins_hash, pattern_match, sha1_core

from .oracles import kernels as oracle

_UNKNOWN_OFFSET = 0x30
_WORD = st.integers(0, (1 << 64) - 1)
_U32 = st.integers(0, 0xFFFFFFFF)


class Spec(NamedTuple):
    """One kernel under test: how to build both sides and drive them."""

    make: Callable[[object], Tuple[object, object]]
    params: st.SearchStrategy
    controls: st.SearchStrategy  # (offset, value)
    registers: Tuple[int, ...]
    max_words: int


def _controls(*pairs):
    return st.one_of(*(st.tuples(st.just(offset), values) for offset, values in pairs))


SPECS = {
    "lookup2": Spec(
        make=lambda _: (JenkinsHashKernel(), oracle.JenkinsHashKernel()),
        params=st.none(),
        controls=_controls(
            (jenkins_hash.LENGTH_OFFSET, st.integers(0, 40)),
            (jenkins_hash.INIT_OFFSET, _U32),
            (_UNKNOWN_OFFSET, st.just(1)),
        ),
        registers=(jenkins_hash.REG_RESULT, jenkins_hash.REG_BYTES_SEEN, 0x3C),
        max_words=8,
    ),
    "sha1": Spec(
        make=lambda _: (Sha1Kernel(), oracle.Sha1Kernel()),
        params=st.none(),
        controls=_controls(
            (sha1_core.LENGTH_OFFSET, st.integers(0, 200)),
            (sha1_core.FINALIZE_OFFSET, _U32),
            (_UNKNOWN_OFFSET, st.just(1)),
        ),
        registers=(*sha1_core.REG_H, sha1_core.REG_BLOCKS, 0x3C),
        max_words=40,
    ),
    "patmatch": Spec(
        make=lambda cols: (PatternMatchKernel(cols), oracle.PatternMatchKernel(cols)),
        params=st.lists(st.integers(0, 255), min_size=8, max_size=8),
        controls=_controls(
            (pattern_match.FLUSH_OFFSET, _U32),
            (pattern_match.PATTERN_LO_OFFSET, _U32),
            (pattern_match.PATTERN_HI_OFFSET, _U32),
            (_UNKNOWN_OFFSET, st.just(1)),
        ),
        registers=(pattern_match.REG_POSITIONS, pattern_match.REG_BEST, 0x3C),
        max_words=12,
    ),
    "brightness": Spec(
        make=lambda c: (BrightnessKernel(c), oracle.BrightnessKernel(c)),
        params=st.integers(-255, 255),
        controls=_controls(
            (image_ops.PARAM_OFFSET, st.integers(0, 0x3FF)),
            (image_ops.FLUSH_OFFSET, _U32),
            (_UNKNOWN_OFFSET, st.just(1)),
        ),
        registers=(image_ops.REG_PIXELS, 0x3C),
        max_words=12,
    ),
    "blend": Spec(
        make=lambda _: (BlendKernel(), oracle.BlendKernel()),
        params=st.none(),
        controls=_controls(
            (image_ops.FLUSH_OFFSET, _U32),
            (image_ops.PARAM_OFFSET, _U32),
        ),
        registers=(image_ops.REG_PIXELS,),
        max_words=12,
    ),
    "fade": Spec(
        make=lambda f: (FadeKernel(f), oracle.FadeKernel(f)),
        params=st.floats(0.0, 1.0),
        controls=_controls(
            (image_ops.PARAM_OFFSET, st.integers(0, 0x3FF)),
            (image_ops.FLUSH_OFFSET, _U32),
        ),
        registers=(image_ops.REG_PIXELS,),
        max_words=12,
    ),
}


def _steps(spec: Spec):
    """One step: data words at a 32- or 64-bit width (as one block, or as
    one-word writes), control writes (each alone, or as one block), or a
    reset.  The PLB Dock mixes both widths on one kernel: 32-bit PIO
    writes and 64-bit DMA beats."""
    width = st.sampled_from([32, 64])
    data = st.tuples(
        st.just("data"), st.lists(_WORD, min_size=1, max_size=spec.max_words), st.booleans(), width
    )
    control = st.tuples(
        st.just("control"), st.lists(spec.controls, min_size=1, max_size=3), st.booleans(), width
    )
    return st.one_of(data, data, control, st.tuples(st.just("reset")))


def _outcome(call):
    try:
        return "ok", call()
    except KernelError as exc:
        return "raises", str(exc)


def _registers(kernel, offsets):
    return [_outcome(lambda: kernel.read_register(offset)) for offset in offsets]


def _writes(step):
    """``(offset, values)`` runs of one step: data goes to offset 0 in one
    run; control writes to successive offsets go one run per offset."""
    if step[0] == "data":
        return [(0, [w & ((1 << step[3]) - 1) for w in step[1]])]
    return [(offset, [value]) for offset, value in step[1]]


def _run_step(kernel, step, as_list):
    """Apply one step; return the call outcomes and the words emitted."""
    if step[0] == "reset":
        kernel.reset()
        return [], kernel.produce()
    as_block, width = step[2], step[3]
    outcomes = []
    for offset, words in _writes(step):
        if as_block:
            block = np.array(words, dtype=np.uint64)
            outcomes.append(_outcome(lambda: as_list(kernel.consume_block(block, width, offset))))
        else:
            for word in words:
                outcomes.append(_outcome(lambda: kernel.consume(word, width, offset)))
                if outcomes[-1][0] == "raises":
                    break
        if outcomes[-1][0] == "raises":
            break
    return outcomes, kernel.produce()


def _shipped_list(words):
    return words.tolist()


def _check_program(spec: Spec, param, steps):
    shipped, reference = spec.make(param)
    assert _registers(shipped, spec.registers) == _registers(reference, spec.registers)
    for index, step in enumerate(steps):
        got = _run_step(shipped, step, _shipped_list)
        want = _run_step(reference, step, list)
        assert got == want, (index, step)
        assert _registers(shipped, spec.registers) == _registers(reference, spec.registers), (
            index,
            step,
        )


@pytest.mark.parametrize("name", sorted(SPECS))
def test_block_datapath_matches_the_per_word_oracle(name):
    spec = SPECS[name]

    @settings(max_examples=35, deadline=None, derandomize=True)
    @given(spec.params, st.lists(_steps(spec), min_size=1, max_size=16))
    def check(param, steps):
        _check_program(spec, param, steps)

    check()


def _data(words, as_block=True, width=32):
    return ("data", words, as_block, width)


def _control(offset, value, as_block=False, width=32):
    return ("control", [(offset, value)], as_block, width)


@pytest.mark.parametrize("name", ["lookup2", "sha1"])
@pytest.mark.parametrize("width", [32, 64])
def test_every_length_and_block_split_matches_the_oracle(name, width):
    """Declared lengths 0..25 bytes, two data blocks of every small size:
    the over-length cut, the refused word and the block count at each
    boundary equal the per-word core's."""
    spec = SPECS[name]
    length_offset = jenkins_hash.LENGTH_OFFSET if name == "lookup2" else sha1_core.LENGTH_OFFSET
    words = list(range(0x01020304, 0x01020304 + 8 * 0x04040404, 0x04040404))
    for length in range(26):
        for first in range(1, 5):
            for second in range(4):
                steps = [_control(length_offset, length), _data(words[:first], width=width)]
                if second:
                    steps.append(_data(words[first : first + second], width=width))
                if name == "sha1":
                    steps.append(_control(sha1_core.FINALIZE_OFFSET, 1))
                _check_program(spec, None, steps)
    for length in range(40, 140):  # the padding-block boundaries at 56 and 120 bytes
        steps = [_control(length_offset, length), _data(list(range(1, 40)), width=width)]
        if name == "sha1":
            steps.append(_control(sha1_core.FINALIZE_OFFSET, 1))
        _check_program(spec, None, steps)


@pytest.mark.parametrize("name", ["blend", "brightness", "fade", "patmatch"])
def test_flush_pads_to_the_width_of_the_last_data_write(name):
    """Six blend pixels wait after a 32-bit then a 64-bit write; FLUSH
    pads them to one 64-bit word, as the per-word core does."""
    param = {"patmatch": [1, 2, 3, 4, 5, 6, 7, 8], "brightness": 9, "fade": 0.25}.get(name)
    for first, second in ((32, 64), (64, 32)):
        steps = [
            _data([0x0807060504030201] * 3, width=first),
            _data([0x1111111122222222], False, second),
            _control(image_ops.FLUSH_OFFSET, 0),
        ]
        _check_program(SPECS[name], param, steps)


def test_oracle_programs_reach_every_kernel_error():
    """The gate's own coverage: each error the hash kernels raise occurs."""
    programs = [
        ("lookup2", [_control(jenkins_hash.LENGTH_OFFSET, 5), _data([1, 2, 3])]),
        ("lookup2", [_data([1])]),
        ("sha1", [_control(sha1_core.LENGTH_OFFSET, 5, True), _data([1, 2, 3])]),
        ("sha1", [_control(sha1_core.LENGTH_OFFSET, 9, True), _data([1], False),
                  _control(sha1_core.FINALIZE_OFFSET, 1, True)]),
        ("sha1", [_control(sha1_core.LENGTH_OFFSET, 0, True),
                  _control(sha1_core.FINALIZE_OFFSET, 1), _data([1])]),
    ]
    messages = []
    for name, steps in programs:
        _check_program(SPECS[name], None, steps)
        shipped, _ = SPECS[name].make(None)
        for step in steps:
            outcomes, _ = _run_step(shipped, step, _shipped_list)
            messages += [detail for kind, detail in outcomes if kind == "raises"]
    assert messages == [
        "lookup2: key already finalised; write LENGTH to restart",
        "lookup2: more data than the declared length",
        "sha1: more data than the declared length",
        "sha1: finalise after 4 of 9 bytes",
        "sha1: digest already finalised",
    ]


def test_block_write_absorbs_the_words_before_the_refused_one():
    """An over-length block keeps every byte up to the declared length."""
    key = bytes(range(1, 10))
    block = np.array(jenkins_hash.key_to_words(key + b"\xff" * 7), dtype=np.uint64)
    kernel = JenkinsHashKernel()
    kernel.consume(len(key), 32, jenkins_hash.LENGTH_OFFSET)
    with pytest.raises(KernelError, match="already finalised"):
        kernel.consume_block(block, 32)
    assert kernel.read_register(jenkins_hash.REG_RESULT) == lookup2(key)
    assert kernel.read_register(jenkins_hash.REG_BYTES_SEEN) == len(key)


#: A control write that opens a message on the hash kernels.
_OPEN = {"lookup2": (jenkins_hash.LENGTH_OFFSET, 30), "sha1": (sha1_core.LENGTH_OFFSET, 100)}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_fresh_kernel_behaves_as_after_reset(name):
    spec = SPECS[name]
    param = {"patmatch": [1, 2, 3, 4, 5, 6, 7, 8], "brightness": 9, "fade": 0.25}.get(name)
    opening = [_control(*_OPEN[name])] if name in _OPEN else []

    def observe(kernel):
        seen = [_registers(kernel, spec.registers)]
        for step in [_data([0x01020304], False), *opening, _data([0x05060708], False)]:
            seen += [_run_step(kernel, step, _shipped_list), _registers(kernel, spec.registers)]
        return seen

    fresh, used = spec.make(param)[0], spec.make(param)[0]
    for step in [*opening, _data(list(range(1, 20)), width=64)]:
        _run_step(used, step, _shipped_list)
    used.reset()
    assert observe(fresh) == observe(used)


# -- the oracles themselves -------------------------------------------------------

RFC3174_VECTORS = [
    (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
    ),
    (b"01234567" * 80, "dea356a2cddd90c7a7ecedc5ebb563934f460452"),
]


@pytest.mark.parametrize("message,digest", RFC3174_VECTORS)
def test_sha1_oracle_and_kernel_match_rfc3174(message, digest):
    assert oracle.sha1(message).hex() == digest
    assert sha1(message).hex() == digest


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.binary(max_size=200))
def test_sha1_oracle_matches_hashlib(message):
    assert oracle.sha1(message) == hashlib.sha1(message).digest()


def test_sha1_compress_requires_full_block():
    with pytest.raises(KernelError):
        oracle.sha1_compress((0, 0, 0, 0, 0), b"short")


#: lookup2 digests recorded from the published algorithm's batch form.
LOOKUP2_DIGESTS = [
    (b"", 0, 0xBD49D10D),
    (b"", 0x12345678, 0x3DF641A9),
    (b"a", 0, 0x29EEC818),
    (b"abc", 0, 0x251E4793),
    (bytes(range(12)), 0, 0x99BDD9EF),
    (bytes(range(23)), 7, 0x4F7F23A7),
    (b"The quick brown fox jumps over the lazy dog", 0, 0xFC1558DE),
    (bytes(range(256)), 0xDEADBEEF, 0xA753FD2A),
]


@pytest.mark.parametrize("key,initval,digest", LOOKUP2_DIGESTS)
def test_lookup2_oracle_and_kernel_keep_recorded_digests(key, initval, digest):
    assert oracle.lookup2(key, initval) == digest
    assert lookup2(key, initval) == digest


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.binary(max_size=100), _U32)
def test_lookup2_matches_the_oracle(key, initval):
    assert lookup2(key, initval) == oracle.lookup2(key, initval)


def test_split_pack_roundtrip():
    value = 0x0807060504030201
    chunks = oracle.OracleKernel._split_words(value, 64, 8)
    assert chunks == [1, 2, 3, 4, 5, 6, 7, 8]
    assert oracle.OracleKernel._pack_words(chunks, 8) == value


def test_split_requires_divisible_width():
    with pytest.raises(KernelError):
        oracle.OracleKernel._split_words(0, 32, 12)
