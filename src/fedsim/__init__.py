"""Deterministic simulator for federated optimization under arbitrary
device unavailability."""

from ._kernels import BACKEND
from .algorithms import (
    Batch,
    BiasedFedAvgSpec,
    DivergenceError,
    ImportanceFedAvgSpec,
    MifaDeltaSpec,
    MifaSpec,
    Runner,
    SamplingFedAvgSpec,
    local_updates,
    run,
)
from .availability import (
    AdversarialLinearParticipation,
    BernoulliParticipation,
    FullParticipation,
    PeriodicParticipation,
    StalenessTracker,
    TraceReplay,
    bernoulli_staleness_bounds,
    bernoulli_staleness_tail,
    check_linear_delay_bound,
    read_trace,
    write_trace,
)
from .problems import (
    MissingOptimumError,
    ProblemInstance,
    make_logistic_instance,
    make_nonconvex_instance,
    make_quadratic_instance,
    quadratic_instance_from_arrays,
)
from .config import (
    ConfigError,
    build_algo_spec,
    build_instance,
    build_model,
    build_schedule,
    label_correlated_probabilities,
    load_config,
    validate_config,
)
from .experiment import (
    compare_experiment,
    fit_rate_slope,
    run_experiment,
    staleness_study,
    waiting_time_study,
)
from .records import RoundMetrics, RunResult
from .schedules import AveragedIterate, InverseDecay, NonConvexConstant, StronglyConvexDecay

__version__ = "0.1.0"
