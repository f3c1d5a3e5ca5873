"""Command-line interface: synth, profile, select, eval.

Mirrors the two operating phases plus evaluation plumbing:

  adasel synth    --config synth.json --out-dir DIR
  adasel profile  --train manifest --perf table.csv --platforms p.json ...
  adasel select   --profile profile.json --stream manifest --out trace.jsonl
  adasel eval     --trace trace.jsonl --truth truth.csv --out report.csv

Exit codes: 0 success, 1 input/runtime error, 2 constraint infeasibility.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import dataio
from .design import KMEANS_SEED, SelectionConstraints, build_design_profile
from .errors import AdaselError, NoFeasiblePlatform
from .harness import SyntheticConfig, evaluate_regret, generate_synthetic
from .runtime import mean_similarity, run_selection

log = logging.getLogger("adasel")


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--verbose", action="store_true",
                        help="log progress to stderr")


def cmd_synth(args) -> int:
    config = (dataio.read_synth_config(args.config) if args.config
              else SyntheticConfig())
    log.debug("generator config: %s", config)
    dataset = generate_synthetic(config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    dataio.write_stream(out / "train_manifest.json", dataset.training_frames,
                        source="adasel-synth training",
                        labels=dataset.training_labels)
    dataio.write_stream(out / "test_manifest.json", dataset.test_stream,
                        source="adasel-synth test")
    dataio.write_performance_table(out / "performance.csv",
                                   dataset.performance)
    dataio.write_window_truth(out / "window_truth.csv", dataset.window_truth)
    dataio.write_platforms(out / "platforms.json", dataset.combos,
                           dataset.platforms)
    print(f"wrote synthetic dataset to {out}: "
          f"{dataset.training_frames.shape[0]} training frames, "
          f"{len(dataset.window_truth)} test windows, "
          f"{len(dataset.combos)} combos, {len(dataset.platforms)} platforms")
    return 0


def cmd_profile(args) -> int:
    stream = dataio.read_stream(args.train)
    performance = dataio.read_performance_table(args.perf)
    combos, platforms = dataio.read_platforms(args.platforms)
    log.debug("%d training frames (dim %d), %d performance records, "
              "%d combos, %d platforms", stream.frames.shape[0],
              stream.frames.shape[1], len(performance), len(combos),
              len(platforms))
    constraints = SelectionConstraints(
        max_mean_error=args.max_error, required_fps=args.required_fps,
        max_cost=args.max_cost)
    profile = build_design_profile(
        stream.frames, combos, platforms, performance, constraints,
        n_scenarios=len({sid for sid, _, _ in performance}),
        subspace_dim=args.subspace_dim,
        window_length=args.window_length, seed=KMEANS_SEED)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    dataio.write_profile(args.out, profile)
    print(f"selected platform: {profile.selected_platform}")
    for s in profile.scenarios:
        labels = ", ".join(f"{pid}->{cid}"
                           for pid, cid in sorted(s.labels.items()))
        print(f"  {s.scenario_id}: {s.member_count} frames; {labels}")
    return 0


def cmd_select(args) -> int:
    profile = dataio.read_profile(args.profile)
    stream = dataio.read_stream(args.stream)
    platform_id = args.platform or profile.selected_platform
    window_length = profile.config.window_length
    log.debug("matching %d frames on platform %s, window length %d",
              stream.frames.shape[0], platform_id, window_length)
    trace = run_selection(stream.frames, profile, platform_id, window_length)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    dataio.write_trace(out, trace)
    dataio.write_trace_csv(out.with_suffix(".csv"), trace)
    print(f"{len(trace.decisions)} windows, {trace.switch_count()} switches, "
          f"mean similarity {mean_similarity(trace):.6f}")
    return 0


def cmd_eval(args) -> int:
    trace = dataio.read_trace(args.trace)
    truth = dataio.read_window_truth(args.truth)
    log.debug("%d trace windows, %d ground-truth windows",
              len(trace.decisions), len(truth))
    report = evaluate_regret(trace, truth)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    dataio.write_report(args.out, report)
    accuracy = ("n/a" if report.scenario_match_accuracy is None
                else f"{report.scenario_match_accuracy:.4f}")
    print(f"selected total {report.selected_sum:.4f}, "
          f"oracle total {report.oracle_sum:.4f}, "
          f"regret {report.regret:.4f}, "
          f"best static {report.best_static_id} "
          f"({report.static_sums.get(report.best_static_id, 0.0):.4f}), "
          f"match accuracy {accuracy}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adasel",
        description="Adaptive algorithm-parameter and platform selection "
                    "via geodesic-flow subspace matching.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config",
                   help="JSON file of generator settings, seed included")
    p.add_argument("--out-dir", required=True)
    _common_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("profile", help="run the design-time phase")
    p.add_argument("--train", required=True,
                   help="training feature-stream manifest")
    p.add_argument("--perf", required=True, help="performance table CSV")
    p.add_argument("--platforms", required=True,
                   help="combo/platform capability JSON")
    p.add_argument("--subspace-dim", type=int, default=20, metavar="B",
                   help="subspace dimension (default 20)")
    p.add_argument("--max-error", type=float, required=True,
                   help="ceiling on best achievable mean error")
    p.add_argument("--required-fps", type=float, required=True,
                   help="fps a combo must reach to be feasible")
    p.add_argument("--max-cost", type=float, required=True,
                   help="platform cost budget")
    p.add_argument("--window-length", type=int, default=30,
                   help="frames per runtime window, stored in the profile")
    p.add_argument("--out", required=True, help="profile JSON output path")
    _common_flags(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("select", help="run the runtime phase over a stream")
    p.add_argument("--profile", required=True)
    p.add_argument("--stream", required=True,
                   help="test feature-stream manifest")
    p.add_argument("--platform",
                   help="platform id (default: the profile's selection)")
    p.add_argument("--out", required=True, help="trace JSONL output path")
    _common_flags(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("eval", help="score a trace against ground truth")
    p.add_argument("--trace", required=True)
    p.add_argument("--truth", required=True,
                   help="per-window per-combo error CSV")
    p.add_argument("--out", required=True, help="report CSV output path")
    _common_flags(p)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except NoFeasiblePlatform as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AdaselError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
