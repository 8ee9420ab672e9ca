"""jil: jump interval-learning.

Penalized change-point segmentation of a continuous treatment domain with
per-segment outcome regression, individualized interval-valued decision
rules, and doubly-robust value inference, plus a seeded simulation harness.
"""

from .core import (
    Dataset,
    Interval,
    JilFit,
    Linear,
    Partition,
    grid_cell,
    make_grid,
    normalize_treatment,
)
from .errors import JilError
from .fit import fit_djil, fit_ljil, recompute_objective
from .mlp import MlpModel, TrainConfig
from .policy import (
    I2dr,
    MaxDose,
    MidPoint,
    MinDose,
    PropensityModel,
    UniformRandom,
    ValueReport,
    estimate_value,
    fit_propensity,
    recommend,
    recommend_batch,
    select_dose,
)
from .segment import dp_no_prune, pelt
from .sim import (
    ScenarioSpec,
    TruthOracle,
    gen_scenario,
    integrated_l2_loss,
    policy_value_mc,
    replicate_table1,
    true_optimal_value,
)
from .tuning import (
    CvReport,
    TuningGrid,
    cv_select_djil,
    cv_select_ljil,
    default_gamma,
    default_grid,
    kfold_split,
)

__version__ = "0.1.0"

__all__ = [
    "CvReport",
    "Dataset",
    "I2dr",
    "Interval",
    "JilError",
    "JilFit",
    "Linear",
    "MaxDose",
    "MidPoint",
    "MinDose",
    "MlpModel",
    "Partition",
    "PropensityModel",
    "ScenarioSpec",
    "TrainConfig",
    "TruthOracle",
    "TuningGrid",
    "UniformRandom",
    "ValueReport",
    "cv_select_djil",
    "cv_select_ljil",
    "default_gamma",
    "default_grid",
    "dp_no_prune",
    "estimate_value",
    "fit_djil",
    "fit_ljil",
    "fit_propensity",
    "gen_scenario",
    "grid_cell",
    "integrated_l2_loss",
    "kfold_split",
    "make_grid",
    "normalize_treatment",
    "pelt",
    "policy_value_mc",
    "recommend",
    "recommend_batch",
    "recompute_objective",
    "replicate_table1",
    "select_dose",
    "true_optimal_value",
    "__version__",
]
