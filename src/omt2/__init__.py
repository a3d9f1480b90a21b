"""Optimal multiple testing for two hypotheses under strong FWER control.

Construct the power-optimal decision rule for a chosen objective
(probability of any true discovery, expected average discoveries, the
one-false-null average, or convex combinations), compare it against
off-the-shelf procedures, and answer trial-design questions such as
sample allocation and sample-size savings.
"""

from .errors import (ConfigError, DegenerateVariance, DomainError,
                     MaxIterations, NoBracket, Omt2Error, ToleranceNotMet,
                     Unachievable, UnsupportedModel)
from .gauss import (AlternativeModel, bivariate_null_density, lr_density,
                    std_normal_cdf, std_normal_quantile)
from .numerics import (McConfig, QuadratureConfig, bisect, mc_estimate,
                       normal_pairs)
from .objective import (ObjectiveSpec, combo_any_one, pure_any, pure_avg,
                        pure_one, score, score_pieces, score_z)
from .procedures import (Decision, Procedure, RegionGrid, bonferroni,
                         build_bittman, build_omt, closed_stouffer,
                         export_region, fixed_sequence, hommel,
                         hommel_coincidence_bound, region_mass,
                         region_symmetric_difference)
from .power_design import (MEASURES, AllocationResult, PowerReport,
                           SavingsReport, TwoArmDesign, allocation_search,
                           evaluate_power, fwer_global, mc_power,
                           observed_pvalue, required_n_for_power,
                           savings_report, theta_for_group, theta_from_design,
                           theta_from_marginal_power)

__version__ = "0.1.0"
