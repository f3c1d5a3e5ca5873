"""Synthetic data generation and regret evaluation for the selector.

The generator builds M well-separated random subspaces with distinct mean
features, emits training frames per scenario, a Markov-switching test
stream with per-window ground truth, and a performance table in which the
best combo genuinely depends on the scenario.  The evaluator compares a
selection trace against the hindsight oracle (per-window best combo) and
against every static single-combo policy.

Everything is deterministic given the config seed.  This module does no
file I/O: :mod:`adasel.dataio` reads and writes the window truth and the
report.  The performance table
is keyed by the ids that design gives each generating scenario when it
recovers that scenario's training block (:func:`adasel.design.scenario_ids`
of the block means), so the generated files feed the design-time pipeline
unmodified.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from functools import reduce
from numbers import Integral, Real

import numpy as np

from .design import AlgoParamCombo, PlatformSpec, scenario_ids
from .errors import ConfigInvalid, Misaligned
from .runtime import SelectionTrace

MIN_SEPARATION = 0.2  # floor on the smallest angle between scenario subspaces
STAY_PROB = 0.6  # chance that a test window keeps the previous one's scenario
ERROR_NOISE = 0.5  # half-width of the uniform noise on a window's true errors


def _is_number(value, kind) -> bool:
    """isinstance for finite numbers, bool (a subclass of int) excluded."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and abs(value) < np.inf)


@dataclass
class SyntheticConfig:
    """Knobs for the synthetic scenario/stream generator.

    ``error_model`` maps each (scenario index, combo index) pair, and no
    other key, to a mean error; when None, a model is generated in which
    scenario i's best combo is combo i mod n_combos.
    """

    dim_ambient: int = 64
    dim_subspace: int = 5
    n_scenarios: int = 5
    n_combos: int = 4
    frames_per_scenario: int = 40
    n_windows: int = 200
    noise_sigma: float = 0.1
    seed: int = 42
    error_model: dict[tuple[int, int], float] | None = None
    mean_scale: float = 4.0

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is int and not _is_number(value, Integral):
                raise ConfigInvalid(
                    f"{f.name} must be an integer, got {value!r}")
            if type(f.default) is float and not _is_number(value, Real):
                raise ConfigInvalid(
                    f"{f.name} must be a finite number, got {value!r}")
        checks = [
            (self.dim_ambient >= 2, "dim_ambient must be >= 2"),
            (self.dim_subspace >= 1, "dim_subspace must be >= 1"),
            (2 * self.dim_subspace <= self.dim_ambient,
             "need dim_ambient >= 2 * dim_subspace"),
            (self.n_scenarios >= 1, "n_scenarios must be >= 1"),
            (self.n_combos >= 1, "n_combos must be >= 1"),
            (self.frames_per_scenario > self.dim_subspace,
             "frames_per_scenario must exceed dim_subspace"),
            (self.n_windows >= 1, "n_windows must be >= 1"),
            (self.noise_sigma >= 0.0, "noise_sigma must be >= 0"),
        ]
        for ok, reason in checks:
            if not ok:
                raise ConfigInvalid(reason)
        if self.error_model is None:
            return
        model, M, H = self.error_model, self.n_scenarios, self.n_combos
        if not isinstance(model, dict):
            raise ConfigInvalid(f"error_model must be a mapping of "
                                f"(scenario, combo) pairs, got {model!r}")
        grid = {(i, h) for i in range(M) for h in range(H)}
        for key in model:
            if key not in grid:
                raise ConfigInvalid(f"error_model key {key!r} is outside "
                                    f"{M} scenarios x {H} combos")
        for i, h in sorted(grid):
            if (i, h) not in model:
                raise ConfigInvalid(
                    f"error_model lacks entry for scenario {i}, combo {h}")
            value = model[(i, h)]
            if not _is_number(value, Real) or value < 0.0:
                raise ConfigInvalid(
                    f"error_model[{i}, {h}] must be a finite number >= 0, "
                    f"got {value!r}")


@dataclass
class WindowTruth:
    """Ground truth for one test window: generating scenario + true errors."""

    window_id: int
    true_scenario_id: str | None
    errors: dict[str, float]


@dataclass
class SyntheticDataset:
    config: SyntheticConfig
    training_frames: np.ndarray
    training_labels: list[str]
    test_stream: np.ndarray
    window_truth: list[WindowTruth]
    combos: list[AlgoParamCombo]
    platforms: list[PlatformSpec]
    performance: dict[tuple[str, str, str], float]
    scenario_map: dict[str, str]  # generating id -> id design gives it


def _random_subspaces(rng, a, b, count, min_separation):
    """Orthonormal bases with pairwise smallest principal angle >= floor."""
    max_cos = np.cos(min_separation)
    bases = []
    attempts = 0
    while len(bases) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise ConfigInvalid(
                f"could not place {count} subspaces with pairwise "
                f"separation {min_separation} in dimension {a}")
        q, _ = np.linalg.qr(rng.standard_normal((a, b)))
        if all(np.linalg.svd(q.T @ p, compute_uv=False).max() <= max_cos
               for p in bases):
            bases.append(q)
    return bases


def _separated_means(rng, a, count, scale):
    means = []
    attempts = 0
    while len(means) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise ConfigInvalid(
                f"could not place {count} separated means in dimension {a}")
        v = rng.standard_normal(a)
        v = v / np.linalg.norm(v)
        if all(abs(v @ m) <= 0.5 for m in means):
            means.append(v)
    return [scale * m for m in means]


def generate_synthetic(config: SyntheticConfig) -> SyntheticDataset:
    """Training frames, Markov test stream, and matching performance table."""
    config.validate()
    a, b = config.dim_ambient, config.dim_subspace
    M, H = config.n_scenarios, config.n_combos
    rng = np.random.default_rng(config.seed)

    bases = _random_subspaces(rng, a, b, M, MIN_SEPARATION)
    means = _separated_means(rng, a, M, config.mean_scale)
    amps = np.linspace(1.2, 0.6, b)

    def draw_frames(scenario, count):
        coeffs = rng.standard_normal((count, b)) * amps
        noise = config.noise_sigma * rng.standard_normal((count, a))
        return means[scenario] + coeffs @ bases[scenario].T + noise

    gen_ids = [f"g{i:03d}" for i in range(M)]
    training_frames = np.vstack([
        draw_frames(i, config.frames_per_scenario) for i in range(M)])
    training_labels = [gen_ids[i] for i in range(M)
                       for _ in range(config.frames_per_scenario)]

    # Markov-switching test stream
    states = []
    state = int(rng.integers(M))
    for _ in range(config.n_windows):
        states.append(state)
        if M > 1 and rng.random() > STAY_PROB:
            others = [s for s in range(M) if s != state]
            state = others[int(rng.integers(M - 1))]
    test_stream = np.vstack([
        draw_frames(s, config.frames_per_scenario) for s in states])

    # scenario-conditional error means
    if config.error_model is not None:
        mean_err = dict(config.error_model)
    else:
        mean_err = {(i, h): 2.0 if h == i % H else float(rng.uniform(5.0, 9.0))
                    for i in range(M) for h in range(H)}

    combos = [AlgoParamCombo(id=f"c{h:02d}") for h in range(H)]
    fps = {c.id: 5.0 * (h + 1) for h, c in enumerate(combos)}  # nominal
    platforms = [
        PlatformSpec(id="p1", cost=1.0, combo_capabilities=fps),
        PlatformSpec(id="p2", cost=2.0,
                     combo_capabilities={c: 2.0 * f for c, f in fps.items()}),
    ]

    # key the table by the ids design gives the training blocks it recovers
    ids = scenario_ids(training_frames.reshape(
        M, config.frames_per_scenario, a).mean(axis=1))

    performance = {(ids[i], combos[h].id, p.id): mean_err[(i, h)]
                   for p in platforms for i in range(M) for h in range(H)}

    window_truth = []
    for w, s in enumerate(states):
        noise = rng.uniform(-ERROR_NOISE, ERROR_NOISE, size=H)
        errors = {combos[h].id: float(max(0.0, mean_err[(s, h)] + noise[h]))
                  for h in range(H)}
        window_truth.append(WindowTruth(
            window_id=w, true_scenario_id=ids[s], errors=errors))

    return SyntheticDataset(
        config=config, training_frames=training_frames,
        training_labels=training_labels, test_stream=test_stream,
        window_truth=window_truth, combos=combos, platforms=platforms,
        performance=performance, scenario_map=dict(zip(gen_ids, ids)))


# --------------------------------------------------------------------------
# regret evaluation

@dataclass
class WindowRegret:
    window_id: int
    selected_error: float
    oracle_error: float
    best_static_error: float


@dataclass
class RegretReport:
    """Per-window and total comparison against oracle and static policies."""

    per_window: list[WindowRegret]
    selected_sum: float
    oracle_sum: float
    static_sums: dict[str, float]
    best_static_id: str | None
    switch_count: int
    scenario_match_accuracy: float | None = None

    @property
    def regret(self) -> float:
        return self.selected_sum - self.oracle_sum


def _total(values) -> float:
    """Left-to-right float sum (sum() compensates on Python >= 3.12)."""
    return reduce(operator.add, values, 0.0)


def evaluate_regret(trace: SelectionTrace,
                    window_truth: list[WindowTruth]) -> RegretReport:
    """Compare a trace against hindsight-oracle and static-combo policies."""
    if len(trace.decisions) != len(window_truth):
        raise Misaligned(
            f"trace has {len(trace.decisions)} windows, "
            f"ground truth has {len(window_truth)}")
    combo_ids = sorted(window_truth[0].errors) if window_truth else []
    pairs = list(zip(trace.decisions, window_truth))
    for decision, truth in pairs:
        if decision.window_id != truth.window_id:
            raise Misaligned(
                f"trace window {decision.window_id} is paired with "
                f"ground-truth window {truth.window_id}")
        if sorted(truth.errors) != combo_ids:
            raise Misaligned(
                f"window {truth.window_id}: ground-truth combos differ "
                "from the first window's")
        if decision.chosen_combo_id not in truth.errors:
            raise Misaligned(
                f"window {truth.window_id}: no ground-truth error for "
                f"chosen combo {decision.chosen_combo_id!r}")

    static_sums = {cid: _total(t.errors[cid] for t in window_truth)
                   for cid in combo_ids}
    best_static_id = min(combo_ids, key=lambda cid: (static_sums[cid], cid),
                         default=None)
    per_window = [WindowRegret(
        window_id=truth.window_id,
        selected_error=truth.errors[decision.chosen_combo_id],
        oracle_error=min(truth.errors.values()),
        best_static_error=truth.errors[best_static_id])
        for decision, truth in pairs]
    accuracy = None
    if pairs and all(t.true_scenario_id is not None for t in window_truth):
        accuracy = sum(d.matched_scenario_id == t.true_scenario_id
                       for d, t in pairs) / len(pairs)
    return RegretReport(
        per_window=per_window,
        selected_sum=_total(w.selected_error for w in per_window),
        oracle_sum=_total(w.oracle_error for w in per_window),
        static_sums=static_sums, best_static_id=best_static_id,
        switch_count=trace.switch_count(), scenario_match_accuracy=accuracy)
