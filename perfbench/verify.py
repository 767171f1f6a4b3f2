"""Verify mode: re-derive the output digests on the reference path.

    python3 perfbench/verify.py --seed paper --seed 7
    python3 perfbench/verify.py --seed 0-99 --fast-only --record

For every seed, runs all 39 scenarios once with the fast paths on and once
under ``REPRO_NO_FAST_PATH=1`` (each in a fresh process, ``jobs=1``, no
result cache), and compares the digests scenario by scenario, and with the
digests recorded in ``digests.json``.  ``--record`` stores the fast-path
digests of every scenario whose reference digest agrees (with
``--fast-only``, every fast-path digest) into the recorded set.  Exits 1
when any digest disagrees.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from run import BenchError, WORK, child_env, run_child
from workloads import (
    DIGESTS, WORKLOADS, inputs_key, load_digests, outcome_records, resolve_jobs, save_digests,
    seed_overrides,
)


def parse_seeds(texts: List[str]) -> List[Optional[int]]:
    seeds: List[Optional[int]] = []
    for text in texts:
        if text == "paper":
            seeds.append(None)
        elif "-" in text:
            low, high = text.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(text))
    return seeds


def child(seed: Optional[int], smoke: bool, out: Path) -> int:
    jobs = resolve_jobs(WORKLOADS["warm_rerun"], seed, smoke)
    from repro.sweep.runner import run_sweep

    keys = {entry.name: inputs_key(entry.name, params) for entry, params in jobs}
    outcome = run_sweep([entry for entry, _ in jobs], jobs=1, cache=None, smoke=smoke,
                        overrides=seed_overrides(WORKLOADS["warm_rerun"], seed, smoke))
    out.write_text(json.dumps(outcome_records(outcome, keys)), encoding="utf-8")
    return 0


def digests_for(seed: Optional[int], smoke: bool, reference: bool, workdir: Path) -> Dict[str, dict]:
    label = f"{'ref' if reference else 'fast'}-{seed}"
    out = workdir / f"{label}.json"
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", "--out", str(out)]
    argv += ["--seed", "paper" if seed is None else str(seed)]
    if smoke:
        argv.append("--smoke")
    env = child_env()
    if reference:
        env["REPRO_NO_FAST_PATH"] = "1"
    run_child(argv, workdir, label, time.monotonic() + 3600.0, env=env)
    return {rec["key"]: rec for rec in json.loads(out.read_text(encoding="utf-8"))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", action="append", default=None,
                        help="'paper', N or LOW-HIGH; repeatable (default: paper)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--fast-only", action="store_true",
                        help="skip the reference path (recording only)")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--digests", type=Path, default=DIGESTS)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    seeds = parse_seeds(args.seed or ["paper"])
    if args.child:
        return child(seeds[0], args.smoke, args.out)

    recorded = load_digests(args.digests)
    bad = 0
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workdir = Path(tmp)
        for seed in seeds:
            try:
                fast = digests_for(seed, args.smoke, False, workdir)
                ref = None if args.fast_only else digests_for(seed, args.smoke, True, workdir)
            except BenchError as err:
                print(f"error: {err}", file=sys.stderr)
                return 1
            agree = match = mismatch = unrecorded = 0
            for key, rec in fast.items():
                ok = rec["status"] == "ok"
                if ref is not None:
                    same = ok and ref[key]["digest"] == rec["digest"]
                    agree += same
                    if not same:
                        bad += 1
                        print(f"  {rec['name']}: fast {str(rec['digest'])[:12]} != "
                              f"reference {str(ref[key]['digest'])[:12]}")
                    ok = ok and same
                if key not in recorded:
                    unrecorded += 1
                elif recorded[key] == rec["digest"]:
                    match += 1
                else:
                    mismatch += 1
                    bad += 1
                    print(f"  {rec['name']}: {str(rec['digest'])[:12]} != recorded "
                          f"{recorded[key][:12]}")
                if args.record and ok:
                    recorded[key] = str(rec["digest"])
            versus = "not run" if ref is None else f"{agree}/{len(fast)}"
            print(f"seed {'paper' if seed is None else seed}: {len(fast)} scenarios, "
                  f"fast == reference {versus}; recorded: {match} match, "
                  f"{mismatch} differ, {unrecorded} new")
            sys.stdout.flush()
    if args.record:
        save_digests(recorded, args.digests)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
