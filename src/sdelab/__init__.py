"""Numerical laboratory for one-dimensional SDEs with irregular drift,
state-dependent jumps and path-dependent coefficients."""

from .coefficients import (CoefficientSet, ConjugateTestFunction, DiffusionSpec,
                           DriftPotential, DriftSpec, MollifierConfig,
                           ScaleTransform, build_scale_transform, check_hypotheses,
                           compute_drift_potential, local_generator,
                           transformed_diffusion)
from .errors import (DegenerateWeights, DivergentMoment, GridMismatch,
                     IntensityBoundViolated, IoError, MissingDriverRecord,
                     NonConvergent, QuadratureFailure, RangeError, SdeLabError,
                     ValidationError)
from .generator import (CagladPath, EquationX, GeneratorValue, PathFunctional,
                        clamped_running_sup, conjugation_residual,
                        constant_functional, evaluate_generator,
                        evaluate_transformed_generator, generator_state,
                        girsanov_weight, law_reference, martingale_residual_ensemble,
                        resolve_functional, sin_left_limit, zero_functional)
from .kernels import (DiscreteLaw, FiniteActivityKernel,
                      StableTailKernel, TabulatedKernel, TiltedKernelReport,
                      TruncationFunction, drift_correction,
                      geometric_partition, jump_operator, moment_bound,
                      pushforward_integral, tv_continuity_modulus)
from .pathcalc import (DirichletReport, GammaQVReport, IntegrabilityGrowthTable,
                       aligned_window_ladder, big_jump_sums, classify_dirichlet,
                       dirichlet_condition_intY, gamma_residual_qv, qv_sweep)
from .scenarios import (RunReport, ScenarioSpec, counterexample_cauchy,
                        counterexample_stable, emit_report, load_spec,
                        run_scenario, scenario_names, standard_profiles)
from .simulator import (CharacteristicsY, EngineSetup, Ensemble, JumpOps,
                        SimConfig, build_characteristics, compensator_residual,
                        engine_setup, jump_ops, simulate_blocks,
                        simulate_x_markovian, simulate_y, weighted_expectation)

__version__ = "0.1.0"
