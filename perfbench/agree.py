#!/usr/bin/env python3
"""Show that two sets of benchmark runs of the same code agree.

    python3 perfbench/agree.py                       # every workload, seeds 1-10 and 11-20
    python3 perfbench/agree.py --workloads ref-stream --first 1-5 --second 6-10

For each workload it runs ``run.py`` once per seed of each set, one run at
a time, and prints for every end-to-end metric both sets' medians and
quartile spreads (third minus first quartile, as a share of the median).
A metric agrees when each set's spread is within its bound from
BENCHMARK.json and the second median is no worse than the first by more
than the bound.  The failed share must be identical in both sets.  Exits 1
if anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(workload: str, seed_list: list[int], seconds: int):
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in seed_list:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        if not doc["correct"]:
            raise SystemExit(f"{workload} seed {seed}: outputs are not correct")
        shares.add((doc["failed"], doc["attempted"]))
        for name, m in doc["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values, {f / a for f, a in shares}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--first", default="1-10")
    parser.add_argument("--second", default="11-20")
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        a, share_a = run_set(workload, seeds(args.first), bench["run_seconds"])
        b, share_b = run_set(workload, seeds(args.second), bench["run_seconds"])
        same_share = len(share_a | share_b) == 1
        ok &= same_share
        print(f"{workload}: failed share {sorted(share_a | share_b)} "
              f"({'identical' if same_share else 'DIFFERS'})")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            ma, mb = statistics.median(a[name]), statistics.median(b[name])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(a[name]), spread(b[name])
            good = worse <= bound and sa <= bound and sb <= bound
            ok &= good
            print(f"  {name:15s} median {ma:12.5g} {mb:12.5g}  "
                  f"spread {sa:6.3f} {sb:6.3f}  worse {worse:+6.3f}  "
                  f"bound {bound:.2f}  {'ok' if good else 'DISAGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
