"""Constrained mixed-variable blackbox optimization.

Variables partition into meta, categorical and standard components; meta
variables decree which other variables and constraints are acting.  Two
solvers share the evaluation runtime: a direct search over user-defined
neighborhoods and Bayesian optimization with a mixed-kernel Gaussian process.
"""

from .bayesian import (AuxiliaryCandidate, BOConfig, BOResult, expected_improvement,
                       latin_hypercube, maximize_acquisition, run_bo)
from .blackbox import (BudgetState, EvaluationRecord, Evaluator, Problem,
                       barrier_value, cache_key, write_history)
from .builtin_problems import mlp_minimizer, toy_table
from .constraints import (BlackboxOutput, ConstraintSpec, ConstraintSystem,
                          LinearExpression)
from .direct_search import (DirectSearchResult, MeshState, SearchConfig,
                            global_search_step, run_direct_search,
                            solve_standard_subproblem)
from .domain import (ALWAYS, CategoricalScope, ContinuousScope, DecreePredicate,
                     Domain, IntegerScope, Membership, MetaComponent, Point, Role,
                     Threshold, VariableSpec, VariableType, enumerate_domain_points)
from .encoders import Encoder
from .errors import (BudgetExhaustedError, ConfigurationError, DecreeViolationError,
                     DomainError, EvaluationError, FactorizationError, FittingError,
                     IncompleteConstraintValuesError, InvalidMetaError,
                     KernelDomainError, MetaboxError, NotEnumerableError,
                     ProblemFileError, ScopeError, ShapeError)
from .gp import (GPModel, KernelConfig, MixedKernel, default_kernel_config,
                 fit_hyperparameters, log_marginal_likelihood,
                 merge_kernel_overrides)
from .neighborhoods import (Combined, Custom, IncrementMetaInteger, IncrementOrdinal,
                            NeighborhoodMapping, SwapCategorical, categorical_neighbors,
                            default_meta_mapping, meta_neighbors, realize_neighbor,
                            register_custom_rule)
from .problem_file import (ParsedProblem, bundled_problem_path, parse_problem,
                           parse_problem_file, serialize_problem)

__version__ = "0.1.0"
