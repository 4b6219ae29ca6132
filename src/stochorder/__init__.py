"""stochorder: stochastic order comparisons for (possibly dependent) pairs.

Exact comparisons on finite joint distributions, grid-based comparisons of
tabulated densities under the classical partial orders, and seeded
statistical estimation from paired samples.
"""

from types import ModuleType as _ModuleType

from .distributions import (
    FiniteJointDistribution,
    FiniteMarginal,
    GridDensityPair,
    PairedSample,
    apply_transform,
    expectation,
    make_joint,
    make_marginal,
    marginal_x,
    marginal_y,
    product_joint,
    swap,
)
from .errors import (
    EmptyComparisonRegion,
    EmptyDistribution,
    InputFormatError,
    InvalidEpsilon,
    NotNormalizable,
    SampleTooSmall,
    StochOrderError,
    SupportTooLarge,
    UndefinedAtSupport,
    ValidationError,
)
from .estimators import (
    EstimateReport,
    EstimateWithCI,
    SeededStream,
    estimate_orders,
    sample_example4,
    sample_joint,
)
from .io import (
    read_joint_json,
    read_sample_csv,
    write_joint_json,
    write_sample_csv,
)
from .partial_orders import compare_hr, compare_lr, compare_mrl, compare_st
from .precedence import (
    compare_all,
    compare_cp_kstar,
    compare_cp_l1,
    compare_mean,
    compare_sp,
    event_probs,
    kstar_decompose,
    l1_decompose,
)
from .scenarios import (
    example1,
    example2,
    example4_spec,
    intransitive_demo,
    transform_counterexample,
    verify_dice,
    verify_example4,
    verify_fixture,
)
from .verdicts import (
    ComparisonReport,
    DecompositionReport,
    EventProbs,
    Outcome,
    PartialOrderReport,
    Verdict,
)

__version__ = "0.1.0"

#: The names imported above, without the submodules that those imports bind.
__all__ = sorted(k for k, v in globals().items() if not (k.startswith("_") or isinstance(v, _ModuleType)))
