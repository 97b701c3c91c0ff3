"""Pairwise-mixing Gibbs dynamics on the simplex, couplings, and a perfect sampler."""

from .cftp import (
    BudgetExhaustedError,
    CftpResult,
    EpochRecord,
    cftp_sample,
    propagate_through_epoch,
    run_epoch,
)
from .chain import (
    LambdaLaw,
    SimplexPoint,
    contraction_factor,
    exact_split,
    sample_step_draw,
    sample_uniform_simplex,
    sq_distance,
)
from .couplings import (
    PairCoupling,
    couple_lambdas,
    success_probability,
)
from .experiments import SummaryReport, wilson_lower
from .partitions import (
    EdgeSchedule,
    PartitionAnalysis,
    SplitRecord,
    analyze_schedule,
)
from .two_stage import (
    FullRunResult,
    coupling_time,
    full_coupling_run,
    stage_steps,
    two_stage_pass,
)

__all__ = [
    "BudgetExhaustedError",
    "CftpResult",
    "EdgeSchedule",
    "EpochRecord",
    "FullRunResult",
    "LambdaLaw",
    "PairCoupling",
    "PartitionAnalysis",
    "SimplexPoint",
    "SplitRecord",
    "SummaryReport",
    "analyze_schedule",
    "cftp_sample",
    "contraction_factor",
    "couple_lambdas",
    "coupling_time",
    "exact_split",
    "full_coupling_run",
    "propagate_through_epoch",
    "run_epoch",
    "sample_step_draw",
    "sample_uniform_simplex",
    "sq_distance",
    "stage_steps",
    "success_probability",
    "two_stage_pass",
    "wilson_lower",
]

__version__ = "0.1.0"
