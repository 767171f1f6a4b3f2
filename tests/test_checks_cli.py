"""CLI contract of the static-analysis subsystem, plus the regression tests
for the invariants that used to be bare ``assert`` statements.

Covers: ``python -m repro.checks`` (via its ``main``), the ``repro check``
subcommand, machine-readable JSON output that round-trips ``json.loads``,
stable rule IDs, the on-by-default pre-simulation DRC with ``--no-drc``
opt-out, and the InvariantError/CheckError raises that replaced asserts.
"""

import json
import textwrap
import types

import numpy as np
import pytest

from repro.checks import all_rules
from repro.checks.cli import main as checks_main
from repro.cli import main as repro_main
from repro.core import build_system32, build_system64
from repro.dock.dma import Descriptor
from repro.errors import CheckError, InvariantError

#: The published rule-ID contract (docs/CHECKS.md); IDs are never reused.
EXPECTED_RULES = {
    *(f"BITS00{i}" for i in range(1, 6)),
    *(f"BUS00{i}" for i in range(1, 6)),
    *(f"SYS00{i}" for i in range(1, 4)),
    *(f"LINT00{i}" for i in range(0, 10)),
}


def test_rule_ids_are_stable():
    assert {rule.id for rule in all_rules()} == EXPECTED_RULES


def test_every_rule_has_title_and_rationale():
    for rule in all_rules():
        assert rule.title and rule.rationale, rule.id


# -- python -m repro.checks ---------------------------------------------------

def test_checks_exit_zero_on_shipped_tree(capsys, cached_self_lint):
    assert checks_main([]) == 0
    out = capsys.readouterr().out
    assert "self-lint(repro)" in out
    assert "drc(system32)" in out
    assert "no findings" in out


def test_checks_json_round_trips(capsys):
    assert checks_main(["--json", "--drc-only", "--system", "32"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["summary"] == {"error": 0, "warning": 0, "info": 0}
    assert payload["diagnostics"] == []


def test_checks_json_reports_known_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        textwrap.dedent(
            """
            import time

            def f(x):
                assert x
                return time.time()
            """
        )
    )
    assert checks_main(["--lint-only", "--path", str(bad), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    rules = {d["rule"] for d in payload["diagnostics"]}
    assert rules == {"LINT001", "LINT003"}
    for diag in payload["diagnostics"]:
        assert diag["severity"] == "error"
        assert diag["line"] >= 1
        assert diag["message"]


def test_checks_list_rules(capsys):
    assert checks_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in EXPECTED_RULES:
        assert rule_id in out


# -- repro check subcommand ---------------------------------------------------

def test_repro_check_subcommand(capsys):
    assert repro_main(["check", "--drc-only", "--system", "64"]) == 0
    out = capsys.readouterr().out
    assert "drc(system64)" in out
    assert "no findings" in out


def test_repro_check_lint_only(capsys, cached_self_lint):
    assert repro_main(["check", "--lint-only"]) == 0
    assert "self-lint(repro)" in capsys.readouterr().out


# -- pre-simulation DRC gate --------------------------------------------------

def test_transfers_accepts_no_drc(capsys):
    assert repro_main(["transfers", "--system", "32", "--words", "16", "--no-drc"]) == 0
    assert "PIO write" in capsys.readouterr().out


def test_demo_accepts_no_drc(capsys):
    assert repro_main(["demo", "--no-drc"]) == 0
    assert "speedup" in capsys.readouterr().out


def test_predrc_aborts_on_miswired_system(monkeypatch, capsys):
    def broken_system():
        system = build_system64()
        system.dock.dma.bus = system.opb  # BUS005: master on the wrong bus
        return system

    monkeypatch.setattr("repro.cli.build_system64", broken_system)
    with pytest.raises(SystemExit) as exc:
        repro_main(["transfers", "--system", "64", "--words", "16"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "BUS005" in err


def test_predrc_skipped_with_no_drc_flag(monkeypatch, capsys):
    def broken_system():
        system = build_system64()
        system.bitlinker.dock_ports = system.bitlinker.dock_ports[:-1]  # SYS003
        return system

    monkeypatch.setattr("repro.cli.build_system64", broken_system)
    with pytest.raises(SystemExit):
        repro_main(["transfers", "--system", "64", "--words", "16"])
    capsys.readouterr()
    # Same broken system, DRC opted out: the simulation itself still works.
    assert repro_main(["transfers", "--system", "64", "--words", "16", "--no-drc"]) == 0


# -- regressions for the replaced asserts ------------------------------------

def _raw_descriptor(src, dst):
    """Build a Descriptor bypassing its constructor validation, the way a
    corrupted in-memory program would look to the engine."""
    d = object.__new__(Descriptor)
    object.__setattr__(d, "src", src)
    object.__setattr__(d, "dst", dst)
    object.__setattr__(d, "word_count", 4)
    object.__setattr__(d, "size_bytes", 8)
    return d


def test_memory_to_dock_without_source_raises():
    dma = build_system64().dock.dma
    with pytest.raises(InvariantError, match="neither a source nor a destination"):
        dma._move(0, _raw_descriptor(src=None, dst=None))


def test_fifo_to_memory_without_destination_raises():
    """The guard fires through the public chain entry before any bus work."""
    system = build_system64()
    before = system.plb.stats.snapshot()
    with pytest.raises(InvariantError, match="neither a source nor a destination"):
        system.dock.dma.run_chain(0, [_raw_descriptor(src=None, dst=None)])
    assert system.plb.stats.snapshot() == before


def test_demo_divergence_raises_check_error(monkeypatch):
    class LyingSoftware:
        def __init__(self, offset):
            pass

        def run(self, system, image):
            return types.SimpleNamespace(
                result=np.zeros(1, dtype=np.uint8), elapsed_us=1.0, elapsed_ps=1
            )

    monkeypatch.setattr("repro.sw.SwBrightness", LyingSoftware)
    with pytest.raises(CheckError, match="diverges"):
        repro_main(["demo", "--no-drc"])

