"""Tests for the SHA-1 kernel (bit-exactness to RFC 3174).

``repro.kernels.sha1_core.sha1`` wraps ``hashlib``, so the batch cases
check it against the independent RFC 3174 compression loop in
``tests/oracles/kernels.py`` rather than against ``hashlib`` itself.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.kernels.jenkins_hash import key_to_words
from repro.kernels.sha1_core import (
    FINALIZE_OFFSET,
    LENGTH_OFFSET,
    REG_BLOCKS,
    REG_H,
    Sha1Kernel,
    sha1,
)

from .oracles import kernels as oracle


def stream_message(kernel: Sha1Kernel, message: bytes, width_bits=32):
    kernel.consume(len(message), width_bits, LENGTH_OFFSET)
    for word in key_to_words(message, width_bits // 8):
        kernel.consume(word, width_bits, 0)
    kernel.consume(1, width_bits, FINALIZE_OFFSET)
    return kernel.digest()


def test_batch_matches_hashlib_vectors():
    for message in (b"", b"abc", b"a" * 55, b"b" * 56, b"c" * 64, b"d" * 1000):
        assert sha1(message) == oracle.sha1(message)


def test_rfc_test_vector():
    expected = "a9993e364706816aba3e25717850c26c9cd0d89d"
    assert oracle.sha1(b"abc").hex() == expected
    assert sha1(b"abc").hex() == expected


def test_streaming_matches_hashlib():
    message = b"The quick brown fox jumps over the lazy dog"
    assert stream_message(Sha1Kernel(), message) == hashlib.sha1(message).digest()


def test_streaming_64bit_words():
    message = bytes(range(200))
    assert stream_message(Sha1Kernel(), message, 64) == hashlib.sha1(message).digest()


def test_streaming_empty_message():
    assert stream_message(Sha1Kernel(), b"") == hashlib.sha1(b"").digest()


def test_result_registers_big_endian():
    kernel = Sha1Kernel()
    message = b"abc"
    stream_message(kernel, message)
    digest = hashlib.sha1(message).digest()
    for index, reg in enumerate(REG_H):
        expected = int.from_bytes(digest[4 * index : 4 * index + 4], "big")
        assert kernel.read_register(reg) == expected


def test_blocks_register_counts_padding():
    kernel = Sha1Kernel()
    stream_message(kernel, b"x" * 64)  # one data block + one padding block
    assert kernel.read_register(REG_BLOCKS) == 2


def test_digest_before_finalize_raises():
    kernel = Sha1Kernel()
    kernel.consume(4, 32, LENGTH_OFFSET)
    kernel.consume(0, 32, 0)
    with pytest.raises(KernelError):
        kernel.digest()
    assert not kernel.digest_ready


def test_finalize_with_missing_data_raises():
    kernel = Sha1Kernel()
    kernel.consume(8, 32, LENGTH_OFFSET)
    kernel.consume(0, 32, 0)
    with pytest.raises(KernelError):
        kernel.consume(1, 32, FINALIZE_OFFSET)


def test_excess_data_rejected():
    kernel = Sha1Kernel()
    kernel.consume(2, 32, LENGTH_OFFSET)
    kernel.consume(0, 32, 0)
    with pytest.raises(KernelError):
        kernel.consume(0, 32, 0)


def test_write_after_finalize_rejected():
    kernel = Sha1Kernel()
    stream_message(kernel, b"done")
    with pytest.raises(KernelError):
        kernel.consume(0, 32, 0)


def test_reset_allows_reuse():
    kernel = Sha1Kernel()
    stream_message(kernel, b"first message")
    kernel.reset()
    assert stream_message(kernel, b"second") == hashlib.sha1(b"second").digest()


def test_does_not_fit_32bit_region():
    # Table 11's caption: "Our implementation does not fit into the dynamic
    # area of the 32-bit system".
    from repro.errors import KernelError as KErr

    kernel = Sha1Kernel()
    component = kernel.make_component(32, 11)
    assert component.width > 28 or component.resources.slices > 1232


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=300))
def test_batch_matches_hashlib_property(message):
    assert sha1(message) == oracle.sha1(message)


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=150))
def test_streaming_matches_hashlib_property(message):
    assert stream_message(Sha1Kernel(), message) == hashlib.sha1(message).digest()
