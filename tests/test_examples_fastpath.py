"""Fast path == reference path on the raw systems of the examples and CLI.

The examples and ``repro demo`` build systems with ``build_system*`` and
drive them directly, so their ``run_steady`` loops, DMA bursts and frame
readbacks compile on systems no scenario rig covers.  Each must print
exactly the same with the fast path pinned on as with it off.
"""

import runpy
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine import fastpath

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _both_outputs(run, capsys):
    outputs = []
    for world in (fastpath.forced_on, fastpath.disabled):
        with world():
            run()
        outputs.append(capsys.readouterr().out)
    return outputs


@pytest.mark.parametrize("name", sorted(p.name for p in EXAMPLES.glob("*.py")))
def test_example_prints_the_same_on_both_paths(name, capsys):
    fast, reference = _both_outputs(
        lambda: runpy.run_path(str(EXAMPLES / name), run_name="__main__"), capsys
    )
    assert fast
    assert fast == reference


@pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["plain", "verify"])
@pytest.mark.parametrize("system", ["32", "64", "dual"])
def test_demo_prints_the_same_on_both_paths(system, verify, capsys):
    fast, reference = _both_outputs(
        lambda: main(["demo", "--system", system, *verify]), capsys
    )
    assert fast
    assert fast == reference
