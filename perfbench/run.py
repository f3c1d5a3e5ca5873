#!/usr/bin/env python3
"""Benchmark of adasel's design time, profile loading and per-window matching.

    python3 perfbench/run.py --workload ref-stream --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The inputs of a run depend only on ``--workload`` and ``--seed``.
This process generates them, then runs one child at a time, each with
OpenBLAS pinned to one thread: a design child (what ``adasel profile``
does), a runtime child (what ``adasel select`` does) and the design child
once more.  Such a round repeats until ``--seconds`` of child wall time
have passed; every round does the same operations.  Every design and every window decision is
checked against the independent oracle in ``oracle.py``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of exactly one traced round).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Pinned before numpy loads, here and in every child: with BLAS threads the
# per-window latency spread doubles on a 2-vCPU machine.  ADASEL_THREADS=1
# keeps the runtime's own matching serial, which the tracer also relies on.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "ADASEL_THREADS": "1"}
CHILD_TIMEOUT_S = 150
# The oracle's factored distances must match the trapezoidal integral this well.
SELF_CHECK_RTOL = 1e-6


def tail_rank(n_per_pass: int) -> float:
    """Highest quantile with at least ten windows of each pass beyond it."""
    return 1.0 - 10.0 / n_per_pass


def quantile_lower(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_child(stage: str, spec: dict, work: Path) -> dict:
    spec_path = work / f"{stage}.spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, **PINNED)
    proc = subprocess.run([sys.executable, str(HERE / "stage.py"), stage,
                           str(spec_path)], env=env, timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{stage} stage failed:\n{proc.stderr}")
    return json.loads(Path(spec["result"]).read_text())


class Checker:
    """Compares one pass's trace files with the oracle's answers."""

    def __init__(self, inputs, design_result, platform, labels):
        self.inputs = inputs
        self.platform = platform
        self.labels = labels
        gen_index = {g: i for i, g in enumerate(inputs.gen_ids)}
        by_gen = {gen_index[g]: sid for sid, g in design_result["clusters"].items()}
        self.accepted = [{by_gen[g] for g in acc} for acc in inputs.accepted]

    def check(self, trace_path: Path, wall_s: float, problems: list[str]):
        """Returns (attempted, failed ids, per-window ms) for one pass."""
        lines = trace_path.read_text().splitlines()
        records = [json.loads(x) for x in lines[1:] if x.strip()]
        n = len(self.accepted)
        if len(records) != n:
            problems.append(f"trace has {len(records)} windows, stream has {n}")
        failed = []
        for k in range(n):
            rec = records[k] if k < len(records) else None
            if (rec is None or rec["window_id"] != k
                    or rec["matched_scenario_id"] not in self.accepted[k]
                    or rec["platform_id"] != self.platform
                    or rec["chosen_combo_id"]
                    != self.labels[rec["matched_scenario_id"]][self.platform]):
                failed.append(k)
        # The out-of-distribution windows fail under the exp(-d) underflow
        # and count as failed; once matched correctly they simply pass.
        unexpected = sorted(set(failed) - self.inputs.expected_failures)
        if unexpected:
            problems.append(f"windows {unexpected[:10]} disagree with the oracle")
        elapsed = [r["elapsed_ms"] for r in records]
        if sum(elapsed) / 1000.0 > wall_s:
            problems.append(f"per-window elapsed_ms sum {sum(elapsed):.1f} ms "
                            f"exceeds the pass wall time {wall_s * 1000:.1f} ms")
        chosen = [r["chosen_combo_id"] for r in records]
        truth = self.inputs.truth_errors
        adaptive = sum(t[c] for t, c in zip(truth, chosen))
        static = min(sum(t[c] for t in truth) for c in truth[0])
        if adaptive > static:
            problems.append(f"adaptive error {adaptive:.3f} exceeds the best "
                            f"static combo's {static:.3f}")
        csv_rows = trace_path.with_suffix(".csv").read_text().splitlines()[1:]
        if [tuple(r.split(",")[:2]) for r in csv_rows] != [
                (str(r["window_id"]), r["chosen_combo_id"]) for r in records]:
            problems.append("CSV projection disagrees with the trace")
        return n, failed, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "adasel" / "__init__.py").is_file():
        print(f"error: no adasel sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]

    work = HERE / "work" / f"{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(w, args, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(w, args, work: Path) -> dict:
    from adasel.gfk import kernel_integral_oracle
    from adasel.subspace import SubspaceBasis, orthogonal_complement, principal_angles
    from oracle import brute_force_design, self_check
    from workloads import (CONSTRAINTS, DIM_SUBSPACE, LOADS, N_SCENARIOS,
                           WINDOW_LENGTH, make_inputs)

    problems: list[str] = []

    def integral_distance(x, z, delta):
        sx = SubspaceBasis(x, orthogonal_complement(x))
        sz = SubspaceBasis(z, orthogonal_complement(z))
        W = kernel_integral_oracle(principal_angles(sx, sz), sx, steps=20000)
        return float(delta @ W @ delta)

    worst = self_check(integral_distance)
    if not worst <= SELF_CHECK_RTOL:
        problems.append(f"oracle self-check gap {worst:.2e}")

    inputs = make_inputs(w, args.seed, work)
    platform, labels = brute_force_design(*_table(inputs), **CONSTRAINTS)
    common = {"src": str(SRC), "trace": args.trace,
              "profile": str(work / "profile.json")}
    design_spec = dict(common, train=str(inputs.train_manifest),
                       perf=str(inputs.performance),
                       platforms=str(inputs.platforms), constraints=CONSTRAINTS,
                       n_scenarios=N_SCENARIOS, subspace_dim=DIM_SUBSPACE,
                       window_length=WINDOW_LENGTH, seed=args.seed,
                       reps=w.design_reps, result=str(work / "design.json"),
                       spans_out=str(work / "design.spans.json"))
    passes = 1 if args.trace else w.passes
    runtime_spec = dict(common, stream=str(inputs.test_manifest),
                        loads=LOADS, result=str(work / "runtime.json"),
                        trace_out=[str(work / f"trace{i}.jsonl")
                                   for i in range(passes)],
                        baseline_trace=str(work / "baseline.jsonl"),
                        spans_out=str(work / "runtime.spans.json"))

    attempted = failed = 0
    design_s, setup_s, elapsed_ms, rss_kib = [], [], [], []
    windows, pass_s = 0, 0.0
    measured = 0.0
    spans, slowdown = [], None

    def design_child():
        nonlocal attempted, failed
        d = run_child("design", design_spec, work)
        design_s.extend(d["design_s"])
        for o in d["outcomes"]:
            attempted += 1
            wrong = [f"design chose platform {o['platform']}, brute force {platform}"
                     ] if o["platform"] != platform else []
            if o["labels"] != labels:
                wrong.append("design labels differ from brute force")
            if not o["clusters_exact"]:
                wrong.append("a cluster does not hold exactly one generating scenario")
            failed += bool(wrong)
            problems.extend(wrong)
        if args.trace:
            spans.append(json.loads(Path(design_spec["spans_out"]).read_text()))
        return d

    while True:
        # Design runs before and after the runtime child, so the design
        # median samples the machine's speed at both ends of the round.
        t0 = time.perf_counter()
        d = design_child()
        r = run_child("runtime", runtime_spec, work)
        if design_child()["digest"] != d["digest"]:
            problems.append("two design runs on the same inputs differ")
        measured += time.perf_counter() - t0

        checker = Checker(inputs, d, platform, labels)
        for trace_out, p in zip(runtime_spec["trace_out"], r["passes"]):
            n, bad, ms = checker.check(Path(trace_out), p["wall_s"], problems)
            attempted += n
            failed += len(bad)
            elapsed_ms += ms
            windows += n
            pass_s += p["wall_s"]
        setup_s += r["setup_s"]
        rss_kib.append(r["peak_rss_kib"])
        for p in r["passes"] + ([r["baseline"]] if "baseline" in r else []):
            if not p["roundtrip_ok"]:
                problems.append("trace round trip changed the decisions")
            if p["profile_reference"] != d["digest"]:
                problems.append("profile round trip changed the digest")
        if args.trace:
            checker.check(Path(runtime_spec["baseline_trace"]),
                          r["baseline"]["wall_s"], problems)
            spans.append(json.loads(Path(runtime_spec["spans_out"]).read_text()))
            slowdown = r["passes"][0]["wall_s"] / r["baseline"]["wall_s"]
            break
        if measured >= args.seconds:
            break

    for p in dict.fromkeys(problems):
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        from tracing import summarise
        layer = summarise(spans)
        layer["runtime.windows"] = (len(elapsed_ms), "count")
        layer["tracing.slowdown"] = (slowdown, "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "design_s": (statistics.median(design_s), "s"),
            "windows_per_s": (windows / pass_s, "1/s"),
            "window_ms_p50": (statistics.median(elapsed_ms), "ms"),
            "window_ms_tail": (quantile_lower(elapsed_ms, tail_rank(w.n_windows)), "ms"),
            "profile_mb": (d["profile_bytes"] / 1e6, "MB"),
            "peak_rss_mb": (statistics.median(rss_kib) * 1024 / 1e6, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _table(inputs):
    """Brute-force arguments read straight from the generated input files."""
    import csv
    with open(inputs.performance, newline="") as fh:
        rows = [(r["scenario_id"], r["combo_id"], r["platform_id"], float(r["error"]))
                for r in csv.DictReader(fh)]
    doc = json.loads(inputs.platforms.read_text())
    caps = {p["id"]: p["combo_capabilities"] for p in doc["platforms"]}
    costs = {p["id"]: p["cost"] for p in doc["platforms"]}
    return rows, caps, costs, [c["id"] for c in doc["combos"]]


if __name__ == "__main__":
    sys.exit(main())
