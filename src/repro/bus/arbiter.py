"""Bus arbitration between named masters.

The CoreConnect buses arbitrate among up to a handful of masters (the CPU's
instruction and data ports, the PLB Dock's DMA engine, the bridge).  The
transaction-level bus already serialises tenures through its busy
watermark; this module adds the *who*:

* :class:`Master` — an identity token carrying an arbitration priority;
* :class:`FixedPriorityArbiter` / :class:`RoundRobinArbiter` — policies
  ordering same-cycle requests;
* :meth:`repro.bus.bus.Bus.request_concurrent` — issue several requests
  that arrive on the same clock edge and let the arbiter decide who goes
  first (the loser's extra latency is the arbitration cost the paper's
  transfer numbers silently include).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Protocol, Sequence, Tuple

from ..errors import BusError
from .transaction import Transaction


@dataclass(frozen=True)
class Master:
    """A bus master identity.

    Lower ``priority`` values win arbitration (0 is highest, as in the
    PLB's request-priority encoding).
    """

    name: str
    priority: int = 2

    def __post_init__(self) -> None:
        if not 0 <= self.priority <= 3:
            raise BusError(f"master {self.name!r}: priority must be 0..3 (PLB encoding)")


#: Conventional identities used by the systems.
CPU_DATA = Master("cpu-data", priority=0)
CPU_INSTR = Master("cpu-instr", priority=1)
DMA_ENGINE = Master("dma", priority=2)


class Arbiter(Protocol):
    """Orders requests that arrive on the same clock edge."""

    def order(self, requests: Sequence[Tuple[Master, Transaction]]) -> List[int]:
        """Return the grant order as indices into ``requests``."""
        ...


class FixedPriorityArbiter:
    """Strict priority; ties broken by request position (daisy chain)."""

    def order(self, requests: Sequence[Tuple[Master, Transaction]]) -> List[int]:
        return sorted(range(len(requests)), key=lambda i: (requests[i][0].priority, i))


class RoundRobinArbiter:
    """Rotating fairness within equal priorities.

    The master granted last drops to the back of its priority class on the
    next conflict, so a streaming DMA cannot starve a same-priority peer.
    """

    def __init__(self) -> None:
        self._last_granted: Dict[int, str] = {}

    def order(self, requests: Sequence[Tuple[Master, Transaction]]) -> List[int]:
        def key(index: int) -> Tuple[int, int, int]:
            master = requests[index][0]
            demoted = 1 if self._last_granted.get(master.priority) == master.name else 0
            return (master.priority, demoted, index)

        granted = sorted(range(len(requests)), key=key)
        if granted:
            winner = requests[granted[0]][0]
            self._last_granted[winner.priority] = winner.name
        return granted
