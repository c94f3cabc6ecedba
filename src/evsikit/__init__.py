"""Value-of-information engine: EVSI by moment matching, with built-in
analytic and nested Monte Carlo oracles for validation."""

__version__ = "0.1.0"

from .rng import (  # noqa: F401
    DistSpec,
    Family,
    SeedSpec,
)
from .model import (  # noqa: F401
    DecisionModel,
    InbSamples,
    PsaSamples,
    compute_inb,
    evpi,
    run_psa,
    voi,
    write_psa_csv,
)
from .regression import (  # noqa: F401
    RegressionFit,
    fit_conditional_mean,
)
from .preposterior import (  # noqa: F401
    QuadraturePlan,
    VarianceEstimate,
    build_plan,
    expected_posterior_variance,
    run_posterior,
)
from .momentmatch import (  # noqa: F401
    EvsiOptions,
    MomentMatchResult,
    compute_constants,
    estimate_evsi,
)
from .casemodels import (  # noqa: F401
    ConjugateToy,
    PreposteriorSummary,
    StudyDesign,
    ades_net_benefit,
    analytic_preposterior,
    get_design,
    get_model,
    list_designs,
    list_models,
)
from .oracles import (  # noqa: F401
    OracleResult,
    nested_mc_evsi,
    regression_on_summaries_evsi,
)
from .experiments import (  # noqa: F401
    EXPERIMENTS,
    bias_sweep,
    replicate_table1,
    variance_convergence,
)
