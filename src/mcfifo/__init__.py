"""Delay bounds for multiclass FIFO queues, with a simulator to check them."""

from .analytic import (
    BoundCurve,
    StabilityReport,
    ThetaSolution,
    bound_cruz_aggregate,
    bound_dd1,
    bound_dmdm,
    bound_mstar_d1,
    delay_bound_convolve,
    gsbb_bound_convolution,
    stability,
    theta_dmdm,
    theta_exact,
    theta_md1,
    theta_mm1,
    waiting_bound_curve,
)
from .errors import (
    ConditionNotMetError,
    InvalidInputError,
    InvalidSpecError,
    NoDecayError,
    NoPositiveRootError,
    UnsupportedEnvelopeError,
)
from .experiments import (
    CaseConfig,
    ComparisonResult,
    preset,
    run_comparison,
    simulate_case,
    tightness_scenario,
)
from .simulator import (
    EmpiricalCCDF,
    RunResult,
    empirical_ccdf,
    merge_streams,
    run_fifo,
)
from .traffic import (
    ArrivalSequence,
    ClassSpec,
    Constant,
    CoupledPoisson,
    DeterministicEnvelope,
    ExponentialMean,
    ExponentialTail,
    Periodic,
    Poisson,
    deterministic_envelope,
    gsbb_tail_from_mgf,
)

__version__ = "0.1.0"
