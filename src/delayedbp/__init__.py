"""delayedbp - discrete-time delayed multi-type branching processes.

Individuals reproduce at a finite set of ages after birth, carry a random
convalescence time (zero = asymptomatic) and may die before exhausting their
reproductive window.  The package derives the censored mean matrices of such
a process, analyzes them spectrally (with special support for families
sharing Perron-Frobenius eigenvectors), computes the Malthusian growth rate
and the closed-form limits of the geometrically weighted mean evolution, and
cross-checks everything against exact path enumeration and individual-level
Monte Carlo simulation.
"""

from .errors import (AllTruncatedError, BetaNotNormalizedError,
                     BracketFailureError, CapExceededError, DelayedBPError,
                     DegenerateDenominatorError, DuplicateDelayError,
                     HorizonTooLargeError, NegativeEntryError,
                     NoConvergenceError, NonIrreducibleError,
                     NotStochasticError, PeriodicFamilyError, SchemaError,
                     TailDivergesError)
from .model import (DelayFamily, LifetimeLaw, MeanMatrixFamily, ModelSpec,
                    OffspringLaw, ValidationReport, censored_mean_matrices,
                    death_prob_by_age, validate)
from .spectral import (PFData, SharedPFReport, commute_check,
                       construct_shared_family,
                       construct_shared_family_reversed, family_pf,
                       is_irreducible, normalized_word_product, period,
                       pf_decompose, shared_pf_check, weight_ratio)
from .malthusian import (CompanionSystem, MalthusianSolution, build_companion,
                         mixture_matrix, solve_malthusian)
from .recursion import (LimitReport, MeanTrajectory, age_distribution,
                        evolve_means, stationary_check, theorem_limits,
                        xi_kernel)
from .paths import (RunFractions, SamplingEstimate, StepCountVector,
                    block_run_statistic, enumerate_lambda, enumerate_words,
                    has_kappa_run, multinomial_size, run_fraction,
                    xi_by_enumeration, xi_by_sampling)
from .simulate import (EnsembleStats, ReplicaBlock, ensemble,
                       extinction_consistency, simulate_replica)
from .cli import model_to_config, parse_config

__version__ = "0.1.0"
