"""Steadiness check: run each workload on ten or more seeds and print, for
every end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json.

  python3 benchmarks/steady.py                     # every workload, 10 seeds
  python3 benchmarks/steady.py --workload mc-high-loss --runs 5 --first-seed 101

Every run lasts run_seconds from BENCHMARK.json, the length the bounds were
set for. A spread above the bound means a regression of that size could not
be told from noise; the benchmark aims for spreads below a third of each
bound. The command fails if any spread, set-up time included, is above its
bound, if a run is not correct, or if the failed share of a workload is not
exactly the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for wl in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = _run(spec["command"], wl, seed, seconds)
            runs.append(res)
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
                + f", failed {res['failed']}/{res['attempted']}", file=sys.stderr)
        print(f"\n{wl}: {len(runs)} runs of {seconds} s")
        print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
        for metric, bound in bounds.items():
            vals = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= bound / 3 else ("  above bound/3" if spread <= bound
                                                  else "  ABOVE BOUND")
            ok = ok and spread <= bound
            print(f"  {metric:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.4f}{bound:>8.3f}{flag}")
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        ok = ok and correct and len(shares) == 1
        print(f"  failed share: {', '.join(str(s) for s in sorted(shares))}"
              f"{'' if len(shares) == 1 else '  NOT IDENTICAL'}; "
              f"all correct: {correct}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
