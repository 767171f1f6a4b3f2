"""Run the ``repro`` command line in this process and record what it did.

``python3 perfbench/sweep_child.py --spawn-ts T --out FILE [--trace] --
sweep run ...`` calls ``repro.cli.main`` with the arguments after ``--``,
exactly as ``python -m repro`` would.  The sweep's outcome is observed by
wrapping ``run_sweep`` at its binding sites (the program is not edited),
and written to FILE with the per-scenario digests.  ``seconds`` runs from
the parent's spawn to the return of ``main``; hashing the results and
interpreter exit come after it.  With ``--trace`` the layer spans of
:mod:`spans` are installed for the whole run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from spans import Patch, Tracer, import_boundary_modules, install
from workloads import inputs_key, outcome_records, sim_stats, use_source_tree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spawn-ts", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    use_source_tree()
    import_boundary_modules()
    from repro.bitstream.generator import rig_memo_telemetry
    from repro.cli import main as repro_main
    from repro.engine import batch
    from repro.sweep.runner import apply_seed_base

    calls = []

    def observe(run_sweep):
        def observed(scenarios, **kwargs):
            outcome = run_sweep(scenarios, **kwargs)
            calls.append((scenarios, kwargs, outcome))
            return outcome
        return observed

    patch = Patch()
    patch.function("repro.sweep.runner", "run_sweep", observe)
    tracer = Tracer() if args.trace else None
    spans_patch = install(tracer) if tracer is not None else None
    code = repro_main(cli_args)
    seconds = time.monotonic() - args.spawn_ts
    if spans_patch is not None:
        spans_patch.remove()
    patch.remove()

    record = {"exit": code, "seconds": seconds, "traced": tracer is not None,
              "spans": tracer.snapshot() if tracer is not None else None}
    if len(calls) == 1:
        scenarios, kwargs, outcome = calls[0]
        overrides = kwargs.get("overrides") or {}
        keys = {
            entry.name: inputs_key(entry.name, apply_seed_base(
                entry.name,
                entry.resolve_params(overrides.get(entry.name),
                                     smoke=kwargs.get("smoke", False)),
                kwargs.get("seed_base")))
            for entry in scenarios
        }
        rig = rig_memo_telemetry()
        record.update({
            "records": outcome_records(outcome, keys),
            "cache": dict(outcome.cache_stats),
            "engine": batch.telemetry().as_dict(),
            "rig_memo": {"hits": rig.hits, "misses": rig.misses},
            "sim": sim_stats(outcome),
        })
    else:
        record["exit"] = code or 3
        print(f"expected one run_sweep call, saw {len(calls)}", file=sys.stderr)
    args.out.write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
