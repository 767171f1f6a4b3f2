"""The DMA engine against its per-chunk store-and-forward oracle.

``SgDmaEngine.run_chain`` moves each descriptor as one burst read and one
burst write; :mod:`tests.oracles.dma` alternates one read and one write
per max-sized chunk.  Twin systems run the same chain through each, with
the fast path on and off, and every observable must agree: completion
time, bus and DMA statistics, memory and the dock FIFO.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_system64, memmap
from repro.dock.dma import Descriptor
from repro.engine import fastpath
from repro.kernels.streams import LoopbackKernel

from .oracles import dma as oracle

#: Covers every staging region a chain below touches.
WINDOW = 64 * 1024
REGIONS = (memmap.STAGE_INPUT, memmap.STAGE_AUX, memmap.STAGE_OUTPUT)


def _descriptors(chain):
    """Memory-to-dock, FIFO-drain and memory-to-memory descriptors, keeping
    undrained data inside the FIFO."""
    src, copy, out = REGIONS
    pending = 0
    descriptors = []
    for count, kind in chain:
        if kind == "copy":
            descriptors.append(Descriptor(src=src, dst=copy, word_count=count))
            src += count * 8
            copy += count * 8
            continue
        if pending + count > 2000:
            descriptors.append(Descriptor(src=None, dst=out, word_count=pending))
            out += pending * 8
            pending = 0
        descriptors.append(Descriptor(src=src, dst=None, word_count=count))
        src += count * 8
        pending += count
        if kind == "drain":
            descriptors.append(Descriptor(src=None, dst=out, word_count=pending))
            out += pending * 8
            pending = 0
    return descriptors


def _run(run_chain, descriptors, total_words):
    system = build_system64()
    system.dock.attach_kernel(LoopbackKernel(pipeline_depth=1))
    data = np.arange(total_words, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    system.ext_mem.load(memmap.STAGE_INPUT - memmap.EXT_MEM_BASE, data.view(np.uint8))
    done = run_chain(system.dock.dma, system.cpu.now_ps, descriptors)
    memory = [
        system.ext_mem.dump(base - memmap.EXT_MEM_BASE, WINDOW).tobytes() for base in REGIONS
    ]
    fifo = system.dock.fifo.pop_many(len(system.dock.fifo))
    return done, system.plb.stats.snapshot(), system.dock.dma.stats.snapshot(), memory, fifo


@given(
    chain=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=600),
            st.sampled_from(["dock", "drain", "copy"]),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=20, deadline=None)
def test_run_chain_matches_the_per_chunk_oracle(chain):
    descriptors = _descriptors(chain)
    total = sum(count for count, _ in chain)
    for mode in (fastpath.forced_on, fastpath.disabled):
        with mode():
            shipped = _run(lambda engine, when, ds: engine.run_chain(when, ds), descriptors, total)
            reference = _run(oracle.run_chain, descriptors, total)
        assert shipped == reference
