"""Reference C^1 approximants inside the operator domain, for the tests.

``domain_approximant`` builds the n-th smooth approximant of a C^1 target
from the scale transform and the mollifier convolutions of
``sdelab.coefficients``, with the compactly supported bump of
``reference.bump_mollifier``; ``canonical_decomposition_residual`` reads any
object with its ``n`` and ``generator_value`` on a simulated ensemble.
"""
from dataclasses import dataclass, field

import numpy as np

from sdelab.coefficients import (CubicTable, DiffusionSpec, ScaleTransform,
                                 _cumulative_table, mollified_drift_derivative,
                                 mollified_function)

from reference import bump_mollifier


def smooth_cutoff(a):
    """C-infinity transition equal to 1 for a <= -1 and 0 for a >= 0."""
    a = np.asarray(a, dtype=float)

    def psi(t):
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = np.exp(-1.0 / t[pos])
        return out

    num = psi(-a)
    den = num + psi(1.0 + a)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
    return out


def plateau_cutoff(x, n):
    """Smooth cutoff equal to 1 on [-n, n] and 0 outside [-(n+1), n+1]."""
    return smooth_cutoff(np.abs(x) - n - 1.0)


@dataclass
class TestFunctionApproximant:
    """Smooth compact-derivative approximant of a C^1 target.

    f_n' = h' * ((target' / h') * cutoff_n) convolved with a compactly
    supported mollifier of width 1/n, so that both f_n' and the generator
    value are available without differentiating the potential.
    """

    n: int
    grid: np.ndarray = field(repr=False)
    f_values: np.ndarray = field(repr=False)
    fprime_values: np.ndarray = field(repr=False)
    lf_core_values: np.ndarray = field(repr=False)  # h' * (weighted conv with rho')

    def __post_init__(self):
        self._f = CubicTable(self.grid, self.f_values)
        self._fp = CubicTable(self.grid, self.fprime_values)
        self._lc = CubicTable(self.grid, self.lf_core_values)

    def f(self, x):
        return self._f(x)

    def f_prime(self, x):
        return self._fp(x)

    def generator_value(self, diffusion: DiffusionSpec, x):
        """Local generator of the approximant at x."""
        x = np.asarray(x, dtype=float)
        return 0.5 * diffusion.sigma(x) ** 2 * self._lc(x)


def domain_approximant(target, target_prime, transform: ScaleTransform,
                       n: int, grid=None) -> TestFunctionApproximant:
    """Build the n-th approximant of a C^1 target inside the domain."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if grid is None:
        if transform.is_identity:
            raise ValueError("an explicit grid is required with the identity transform")
        grid = transform.grid
    grid = np.asarray(grid, dtype=float)
    width = 1.0 / n
    lo, hi = transform.domain
    if np.isfinite(lo):
        # keep the mollifier window inside the tabulated domain
        grid = grid[(grid >= lo + width) & (grid <= hi - width)]
        if len(grid) < 3 or grid[0] > 0 or grid[-1] < 0:
            raise ValueError("transform table too narrow for this smoothing width")

    def weighted(u):
        # target' * exp(potential) * cutoff, with exp(potential) = 1/h'
        return target_prime(u) / transform.deriv(u) * plateau_cutoff(u, n)

    hp = transform.deriv(grid)
    with bump_mollifier():
        fprime = hp * mollified_function(weighted, grid, width)
        # generator core: h' * d/dx[(weighted) * rho_w] via the mollifier derivative
        lf_core = hp * mollified_drift_derivative(weighted, grid, width)
    f_vals = _cumulative_table(CubicTable(grid, fprime), grid)
    f_vals = f_vals + float(np.asarray(target(np.zeros(1)))[0])
    return TestFunctionApproximant(
        n=n, grid=grid, f_values=f_vals, fprime_values=fprime, lf_core_values=lf_core,
    )


@dataclass
class DecompositionDiagnostics:
    levels: list
    sup_gap_mean: np.ndarray
    sup_gap_max: np.ndarray
    finest_integrals: np.ndarray = field(repr=False)  # per path, full grid


def canonical_decomposition_residual(ensemble, coeffs,
                                     approximants) -> DecompositionDiagnostics:
    """Stabilisation of int_0^t (local generator of f_n)(X_s) ds across levels.

    The gap between consecutive approximation levels, sup over the grid
    and averaged over paths, is the observable proxy for the convergence
    of the drift term in the canonical decomposition.
    """
    dt = float(ensemble.times[1] - ensemble.times[0])
    X = ensemble.x[ensemble.active]
    integrals = []
    for ap in approximants:
        gen = ap.generator_value(coeffs.diffusion, X[:, :-1])
        integ = np.cumsum(gen * dt, axis=-1)
        integ = np.concatenate([np.zeros((integ.shape[0], 1)), integ], axis=-1)
        integrals.append(integ)
    gap_mean, gap_max = [], []
    for a, b in zip(integrals[:-1], integrals[1:]):
        sup = np.max(np.abs(b - a), axis=-1)
        gap_mean.append(float(np.mean(sup)))
        gap_max.append(float(np.max(sup)))
    return DecompositionDiagnostics(
        levels=[ap.n for ap in approximants],
        sup_gap_mean=np.asarray(gap_mean), sup_gap_max=np.asarray(gap_max),
        finest_integrals=integrals[-1],
    )
