"""Group-wise threshold calibration for fairness-constrained classification."""

from .core import (
    Dataset,
    EvalReport,
    FairnessConstraint,
    ThresholdRule,
)
from .metrics import (
    GroupedScores,
    ThresholdCurve,
    evaluate,
)
from .solve import (
    MulticlassSolveResult,
    SolveResult,
    SolverError,
    solve,
    solve_multiclass_dp,
)
from .gaussian import (
    GaussianPopulation,
    MulticlassOracle,
    ScoreLaw,
    fair_accuracy,
    oracle_multiclass_dp,
    t_star,
)
from .scores import (
    LogisticModel,
    TrainConfig,
    fit_logistic,
    predict_proba,
    score_dataset,
)
from .synth import SynthSpec, draw_population, sample

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EvalReport",
    "FairnessConstraint",
    "ThresholdRule",
    "GroupedScores",
    "ThresholdCurve",
    "evaluate",
    "MulticlassSolveResult",
    "SolveResult",
    "SolverError",
    "solve",
    "solve_multiclass_dp",
    "GaussianPopulation",
    "MulticlassOracle",
    "ScoreLaw",
    "fair_accuracy",
    "oracle_multiclass_dp",
    "t_star",
    "LogisticModel",
    "TrainConfig",
    "fit_logistic",
    "predict_proba",
    "score_dataset",
    "SynthSpec",
    "draw_population",
    "sample",
    "__version__",
]
