"""Adaptive algorithm-parameter and platform selection for feature streams.

Offline, training data is clustered into scenarios, each labeled with its
best algorithm-parameter combination per platform, and a platform is
chosen under cost/error constraints.  Online, each time window of the
incoming stream is matched to the most similar scenario through a
geodesic-flow kernel on the Grassmann manifold of feature subspaces, and
the scenario's label becomes the window's selection.
"""

from .design import (AlgoParamCombo, DesignProfile, PlatformSpec,
                     ProfileConfig, ScenarioProfile, SelectionConstraints,
                     build_design_profile, cluster_scenarios, feasible_combos,
                     label_scenarios, rank_combos, select_platform)
from .harness import (RegretReport, SyntheticConfig, SyntheticDataset,
                      WindowTruth, evaluate_regret, generate_synthetic)
from .runtime import (SelectionDecision, SelectionTrace, TimeWindow,
                      build_window, match_scenario, run_selection,
                      segment_windows)
from .subspace import as_feature_matrix, pca_basis

__version__ = "0.1.0"

__all__ = [
    "AlgoParamCombo", "DesignProfile", "PlatformSpec", "ProfileConfig",
    "RegretReport", "ScenarioProfile", "SelectionConstraints",
    "SelectionDecision", "SelectionTrace", "SyntheticConfig",
    "SyntheticDataset", "TimeWindow", "WindowTruth", "as_feature_matrix",
    "build_design_profile", "build_window", "cluster_scenarios",
    "evaluate_regret", "feasible_combos", "generate_synthetic",
    "label_scenarios", "match_scenario", "pca_basis", "rank_combos",
    "run_selection", "segment_windows", "select_platform",
]
