"""Per-chunk store-and-forward reference for the scatter-gather DMA engine.

:meth:`repro.dock.dma.SgDmaEngine.run_chain` moves each descriptor as one
``Bus.request_burst`` read followed by one ``Bus.request_burst`` write.
:func:`run_chain` is the loop that shape stands in for: per max-sized
chunk, one ``Bus.request`` read into the engine's buffer and one
``Bus.request`` write out of it, alternating.  Both must finish at the
same time with the same statistics, memory and FIFO contents.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bus.arbiter import DMA_ENGINE
from repro.bus.transaction import Op, Transaction
from repro.dock.dma import Descriptor, SgDmaEngine


def run_chain(engine: SgDmaEngine, when_ps: int, descriptors: Sequence[Descriptor]) -> int:
    """``engine.run_chain(when_ps, descriptors)``, one chunk at a time."""
    bus = engine.bus
    cursor = when_ps
    for d in descriptors:
        engine._check_descriptor_fault()
        cursor += bus.clock.cycles_to_ps(engine.DESCRIPTOR_FETCH_CYCLES)
        if d.dst is None:
            counter = "words_to_dock"
        elif d.src is None:
            counter = "words_from_fifo"
        else:
            counter = "words_copied"
        src: Optional[int] = d.src
        dst: Optional[int] = d.dst
        remaining = d.word_count
        while remaining:
            chunk = min(remaining, bus.max_burst_beats)
            read = bus.request(
                cursor,
                Transaction(
                    op=Op.READ,
                    address=engine.dock_base if src is None else src,
                    size_bytes=d.size_bytes,
                    beats=chunk,
                ),
                master=DMA_ENGINE,
            )
            values = read.value if isinstance(read.value, list) else [read.value]
            write = bus.request(
                read.done_ps,
                Transaction(
                    op=Op.WRITE,
                    address=engine.dock_base if dst is None else dst,
                    size_bytes=d.size_bytes,
                    beats=chunk,
                    data=values,
                ),
                master=DMA_ENGINE,
            )
            cursor = write.done_ps
            if src is not None:
                src += chunk * d.size_bytes
            if dst is not None:
                dst += chunk * d.size_bytes
            remaining -= chunk
            engine.stats.count(counter, chunk)
        engine.stats.count("descriptors")
    return cursor
