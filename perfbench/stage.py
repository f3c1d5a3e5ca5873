"""One measured phase in its own process: ``stage.py design|runtime SPEC``.

The design stage runs what ``adasel profile`` runs, ``reps`` times; the
runtime stage runs what ``adasel select`` runs: it loads the profile and the
stream ``loads`` times, then decides every window once per pass and
writes both trace files of each pass.  The runtime process does nothing else, so its peak RSS is the
runtime's.  With ``trace`` set, spans are recorded and written at the end;
the runtime stage then first makes one untraced pass as the baseline for
the tracing overhead.  Results go to the JSON file named in the spec.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def _design(spec, tracer):
    import numpy as np
    from adasel import dataio, design

    c = spec["constraints"]
    times, outcomes = [], []
    for _ in range(spec["reps"]):
        t0 = time.perf_counter()
        with tracer.span("bench.design") if tracer else nullcontext():
            stream = dataio.read_stream(spec["train"])
            performance = dataio.read_performance_table(spec["perf"])
            combos, platforms = dataio.read_platforms(spec["platforms"])
            constraints = design.SelectionConstraints(
                max_mean_error=c["max_error"], required_fps=c["required_fps"],
                max_cost=c["max_cost"])
            profile = design.build_design_profile(
                stream.frames, combos, platforms, performance, constraints,
                n_scenarios=spec["n_scenarios"],
                subspace_dim=spec["subspace_dim"],
                window_length=spec["window_length"], seed=spec["seed"])
            dataio.write_profile(spec["profile"], profile)
        times.append(time.perf_counter() - t0)

        with tracer.paused() if tracer else nullcontext():
            # each cluster must hold exactly one generating scenario's frames
            centers = np.stack([s.representative_feature for s in profile.scenarios])
            X = stream.frames
            d2 = ((X ** 2).sum(1)[:, None] - 2.0 * X @ centers.T
                  + (centers ** 2).sum(1)[None, :])
            nearest = np.argmin(d2, axis=1)
            clusters = {}
            for label, k in zip(stream.labels, nearest):
                clusters.setdefault(profile.scenarios[k].scenario_id, set()).add(label)
            members = {s.scenario_id: s.member_count for s in profile.scenarios}
            counts = {sid: int((nearest == k).sum())
                      for k, sid in enumerate(members)}
            exact = (all(len(g) == 1 for g in clusters.values())
                     and len(clusters) == len(members) and counts == members
                     and len({min(g) for g in clusters.values()}) == len(members))
            outcomes.append({
                "platform": profile.selected_platform,
                "labels": {s.scenario_id: s.labels for s in profile.scenarios},
                "clusters_exact": exact})
    with tracer.paused() if tracer else nullcontext():
        digest = dataio.profile_digest(profile)
    doc = json.loads(Path(spec["profile"]).read_text())
    files = [Path(spec["profile"])] + [
        Path(spec["profile"]).parent / v for s in doc["scenarios"]
        for k, v in s.items() if k.endswith("_file")]
    return {"design_s": times, "outcomes": outcomes, "digest": digest,
            "profile_bytes": sum(f.stat().st_size for f in files),
            "clusters": {sid: min(g) for sid, g in clusters.items()}}


def _pass(profile, stream, out: Path, tracer):
    """What ``adasel select`` does after loading; returns its wall time."""
    from adasel import dataio, runtime

    t0 = time.perf_counter()
    with tracer.span("bench.pass") if tracer else nullcontext():
        trace = runtime.run_selection(stream.frames, profile,
                                      profile.selected_platform,
                                      profile.config.window_length)
        dataio.write_trace(out, trace)
        dataio.write_trace_csv(out.with_suffix(".csv"), trace)
    wall = time.perf_counter() - t0
    with tracer.paused() if tracer else nullcontext():
        back = dataio.read_trace(out)
    same = (back.profile_reference == trace.profile_reference
            and len(back.decisions) == len(trace.decisions)
            and all(a.window_id == b.window_id
                    and a.matched_scenario_id == b.matched_scenario_id
                    and a.chosen_combo_id == b.chosen_combo_id
                    and a.platform_id == b.platform_id
                    and a.similarity == b.similarity
                    and list(a.all_similarities) == list(b.all_similarities)
                    for a, b in zip(trace.decisions, back.decisions)))
    return {"wall_s": wall, "roundtrip_ok": same,
            "profile_reference": trace.profile_reference}


def _runtime(spec, tracer):
    from adasel import dataio

    result = {}
    if tracer:
        profile = dataio.read_profile(spec["profile"])
        stream = dataio.read_stream(spec["stream"])
        result["baseline"] = _pass(profile, stream, Path(spec["baseline_trace"]), None)
        del profile, stream
        tracer.install()
    setup = []
    for i in range(spec["loads"]):
        if i:
            del profile, stream
        t0 = time.perf_counter()
        with tracer.span("bench.load") if tracer else nullcontext():
            profile = dataio.read_profile(spec["profile"])
            stream = dataio.read_stream(spec["stream"])
        setup.append(time.perf_counter() - t0)
    result["setup_s"] = setup
    result["passes"] = [_pass(profile, stream, Path(out), tracer)
                        for out in spec["trace_out"]]
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def main(stage: str, spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        if stage == "design":
            tracer.install()
    result = {"design": _design, "runtime": _runtime}[stage](spec, tracer)
    if tracer:
        tracer.uninstall()
        tracer.dump(spec["spans_out"])
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
