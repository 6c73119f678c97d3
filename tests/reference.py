"""Reference computations that only the tests use.

Each one checks a property of the lab's objects against the paper's
identities: the carre du champ of a conjugated profile, the polarized
covariation and the C^1 chain rule of the regularization estimator, the
uniform continuity of the generator on balls of paths, a second route to
the drift correction, the working bound of the nonlocal term, the
power tail's scalar quadrature route (QUADPACK pieces and a dyadic tail),
a second mollifier family, the bump, for the limits that must not
depend on the smoothing, the simulated Y of a run, which the ensemble
does not keep, and the atom sampler's earlier big-first route.  None of
them is run by a command, diagnostic or script of ``sdelab``.
"""
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from unittest import mock

import numpy as np

from sdelab import (CagladPath, ConjugateTestFunction, DiffusionSpec, EquationX,
                    ScaleTransform, TruncationFunction, coefficients,
                    evaluate_generator, qv_sweep, simulate_y, simulator)
from sdelab._quad import gauss_legendre, gauss_legendre_01
from sdelab.errors import QuadratureFailure
from sdelab.kernels import _INNER_NODES, _TOL, _beyond
from sdelab.pathcalc import _grid_step, _time_index


# ---------------------------------------------------------------------------
# the simulated Y of a run
# ---------------------------------------------------------------------------

def simulated_y(setup):
    """Y of the run ``setup`` as the engine simulates it, before X is read
    back through the inverse transform: the run repeated over all its paths
    in this process, which equals it bit for bit, recording the columns of
    Y that the engine inverts one at a time, or with the final row-block
    inversion handing Y back, so that its rows of X hold Y."""
    inverse = ScaleTransform.inverse
    columns = []

    def keep_y(self, y):
        if np.ndim(y) == 2:  # the final inversion's row blocks
            return np.array(y)
        if sys._getframe(1).f_code is simulator._engine.__code__:  # a column
            columns.append(np.array(y))
        return inverse(self, y)
    with mock.patch.object(ScaleTransform, "inverse", keep_y):
        x = simulate_y(setup, paths=range(setup.config.n_paths)).x
    return np.stack(columns, axis=1) if columns else x


# ---------------------------------------------------------------------------
# the atom sampler with its rows reordered big first
# ---------------------------------------------------------------------------

def big_first_sample(kernel, transform, delta, x_pre, y_pre, u1):
    """Sizes (z, w) of accepted big jumps at the pre-jump states (x_pre,
    y_pre), drawn as the atom sampler drew them before it indexed the
    chosen atom in its row: each row's positions, sizes and big masses
    reordered big first with ``take_along_axis``, and the chosen atom read
    from the reordered rows."""
    atoms = kernel.atoms(x_pre)
    z = np.asarray(transform.forward(x_pre[:, None] + atoms.pos)) - y_pre[:, None]
    big = np.abs(z) > delta
    n_big = big.sum(axis=-1)
    order = np.argsort(~big, axis=-1, kind="stable")
    pos, z, mb = (np.take_along_axis(np.broadcast_to(a, big.shape), order, axis=-1)
                  for a in (atoms.pos, z, atoms.mass * big))
    cum = np.cumsum(mb, axis=-1) / atoms.sum(mb, n_big)[:, None]
    j = np.minimum(np.sum(cum < u1[:, None], axis=-1), n_big - 1)[:, None]
    return (np.take_along_axis(z, j, axis=-1)[:, 0],
            np.take_along_axis(pos, j, axis=-1)[:, 0])


# ---------------------------------------------------------------------------
# profiles and the carre du champ
# ---------------------------------------------------------------------------

def identity_profile(span=50.0):
    """phi(y) = y, declared bounded on the working range of width ``span``."""
    return ConjugateTestFunction(
        phi=lambda y: np.asarray(y, dtype=float),
        phi_prime=lambda y: np.ones_like(np.asarray(y, dtype=float)),
        phi_second=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        bound=span, name="identity",
    )


def square_identity_residual(f: ConjugateTestFunction, transform: ScaleTransform,
                             diffusion: DiffusionSpec, sample_points):
    """max |L(f^2) - 2 f Lf - (f' sigma)^2| over the sample points.

    L(f^2) is computed through the conjugate phi^2, using
    (phi^2)'' = 2 phi'^2 + 2 phi phi''.
    """
    x = np.asarray(sample_points, dtype=float)
    y = transform.forward(x)
    hp = transform.deriv(x)
    sig = diffusion.sigma(x)
    s0sq = (sig * hp) ** 2
    lf = 0.5 * s0sq * f.phi_second(y)
    lf2 = 0.5 * s0sq * (2.0 * f.phi_prime(y) ** 2 + 2.0 * f.phi(y) * f.phi_second(y))
    carre = (f.phi_prime(y) * hp * sig) ** 2
    return float(np.max(np.abs(lf2 - 2.0 * f.phi(y) * lf - carre)))


# ---------------------------------------------------------------------------
# paths: stopping, covariation and the chain rule
# ---------------------------------------------------------------------------

def stopped(path: CagladPath, t):
    """The path on its own grid with the value frozen from t onwards
    (times and values only)."""
    i = path.index_at(t)
    vals = path.values.copy()
    vals[i + 1:] = vals[i]
    return CagladPath(path.times.copy(), vals)


def covariation(times, v1, v2, epsilon, t):
    """Polarized covariation of two paths on the grid ``times``: a quarter
    of [v1+v2] minus [v1-v2]."""
    v1, v2 = np.asarray(v1, dtype=float), np.asarray(v2, dtype=float)
    plus, minus = qv_sweep(times, np.stack([v1 + v2, v1 - v2]), (epsilon,), t)[0]
    return float(0.25 * (plus - minus))


def row_jumps(ens, i):
    """The jump records of row i of ``ens``: times, pre-jump values and sizes."""
    rows = ens.jumps_of(i)
    return ens.jump_time[rows], ens.jump_x_pre[rows], ens.jump_w[rows]


@dataclass
class ChainRuleComparison:
    predicted: float
    epsilons: np.ndarray
    estimated: np.ndarray

    @property
    def finest_estimate(self):
        return float(self.estimated[-1])


def chain_rule_qv(phi, phi_prime, times, values, jumps, epsilons,
                  t) -> ChainRuleComparison:
    """Predicted vs estimated quadratic variation of the image of one path.

    ``jumps`` holds the path's recorded jump times, pre-jump values and
    sizes.  Predicted: the weighted continuous part plus the exact sum of
    squared image jumps; the continuous increments are the grid increments
    with the in-step recorded jumps removed.  Estimated: the
    regularization estimator applied to the transformed values.
    """
    times = np.asarray(times, dtype=float)
    dt = _grid_step(times)
    idx_t = _time_index(times, t, dt)
    v = np.asarray(values, dtype=float)

    jt, jx, jw = (np.asarray(a, dtype=float) for a in jumps)
    sel = jt <= t + 1e-12
    jt, jx, jw = jt[sel], jx[sel], jw[sel]

    dvc = np.diff(v).copy()
    if len(jt):
        steps = np.clip(((jt - 1e-12) / dt).astype(int), 0, len(dvc) - 1)
        np.subtract.at(dvc, steps, jw)
    pred_cont = float(np.sum((np.asarray(phi_prime(v[:idx_t])) ** 2)
                             * dvc[:idx_t] ** 2))
    pred_jump = float(np.sum((np.asarray(phi(jx + jw)) - np.asarray(phi(jx))) ** 2))

    return ChainRuleComparison(predicted=pred_cont + pred_jump,
                               epsilons=np.sort(np.asarray(epsilons, dtype=float))[::-1],
                               estimated=qv_sweep(times, phi(v), epsilons, t))


# ---------------------------------------------------------------------------
# uniform continuity of the generator on balls
# ---------------------------------------------------------------------------

@dataclass
class ModulusEstimate:
    deltas: np.ndarray
    sups: np.ndarray

    def slope(self):
        """Least-squares slope of sup against delta through the origin."""
        d, s = self.deltas, self.sups
        return float(np.sum(d * s) / np.sum(d * d))


def generator_ball_modulus(f: ConjugateTestFunction, eq: EquationX, ball_radius,
                           n_probes=24, deltas=(0.4, 0.2, 0.1, 0.05), seed=0,
                           n_grid=65) -> ModulusEstimate:
    """Empirical modulus sup |gen(eta1)(t) - gen(eta2)(t)| over close path pairs.

    Pairs are random paths inside the sup-norm ball with perturbations of
    prescribed size; the report is cumulative over descending delta, so it
    is monotone by construction (a sup over a larger neighborhood can only
    grow).
    """
    rng = np.random.default_rng(seed)
    deltas = np.sort(np.asarray(deltas, dtype=float))
    times = np.linspace(0.0, 1.0, n_grid)
    sups = np.zeros_like(deltas)
    m = float(ball_radius)
    for _ in range(n_probes):
        steps = rng.standard_normal(n_grid - 1) * (0.5 * m / np.sqrt(n_grid))
        base = np.concatenate([[0.0], np.cumsum(steps)])
        base = np.clip(base, -0.8 * m, 0.8 * m)
        t = float(rng.choice(times[1:]))
        for j, d in enumerate(deltas):
            if rng.uniform() < 0.5:
                pert = np.full_like(base, d * rng.choice([-1.0, 1.0]))
            else:
                pert = d * rng.uniform(-1.0, 1.0, size=base.shape)
            other = np.clip(base + pert, -m, m)
            g1 = evaluate_generator(f, eq, CagladPath(times, base), t).total
            g2 = evaluate_generator(f, eq, CagladPath(times, other), t).total
            sups[j] = max(sups[j], abs(g1 - g2))
    return ModulusEstimate(deltas=deltas, sups=np.maximum.accumulate(sups))


# ---------------------------------------------------------------------------
# the drift correction and the nonlocal term
# ---------------------------------------------------------------------------

def drift_correction_expansion(kernel, transform: ScaleTransform,
                               trunc: TruncationFunction, y):
    """``drift_correction`` through the split of its integrand into a core
    that cancels exactly near 0 and a bounded tail, both written with the
    derivative of the inverse transform; the two routes must agree."""
    x = float(np.asarray(transform.inverse(y)))
    y0 = float(np.asarray(transform.forward(x)))
    hp_x = float(np.asarray(transform.deriv(x)))
    a_nodes, a_wts = gauss_legendre_01(_INNER_NODES)
    r_in = trunc.radius / np.max(1.0 / transform.hprime_values)
    inv_dy = 1.0 / hp_x  # derivative of the inverse at y

    def inv_deriv(u):
        return 1.0 / np.asarray(transform.deriv(transform.inverse(u)))

    def core(w):
        z = float(np.asarray(transform.forward(x + w))) - y0
        if abs(z) > r_in:
            return 0.0
        vals = inv_dy - inv_deriv(y0 + a_nodes * z)
        return float(np.sum(vals * a_wts)) * z

    def tail(w):
        z = float(np.asarray(transform.forward(x + w))) - y0
        if abs(z) <= r_in:
            return 0.0
        psi_bar = float(np.sum(inv_deriv(y0 + a_nodes * z) * a_wts))
        return inv_dy * float(trunc(z)) - float(trunc(z * psi_bar))

    val = kernel.integral(x, np.vectorize(lambda w: core(w) + tail(w), otypes=[float]))
    return hp_x * val


def _holder_norm(f_prime, alpha, radius, n=161):
    """Hoelder norm of f' over [-radius, radius] from a probe grid.

    With alpha = 0 the seminorm degenerates to the sup of increments
    (uniform-continuity convention).
    """
    u = np.linspace(-radius, radius, n)
    v = np.asarray(f_prime(u), dtype=float)
    du = np.abs(u[:, None] - u[None, :])
    dv = np.abs(v[:, None] - v[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(du > 0, dv / np.where(du > 0, du**alpha, 1.0), 0.0)
    return float(np.max(ratio)) + float(np.max(np.abs(v)))


def jump_operator_bound(f_prime, kernel, trunc: TruncationFunction, y, f_sup):
    """Working bound on ``|jump_operator(f, f_prime, kernel, trunc, y, f_sup)|``
    for |f| <= ``f_sup``: the Hoelder norm of f' near y times the tilted mass
    m1 inside the truncation radius R, plus the far profile's sup times the
    mass m2 beyond R."""
    alpha, R = kernel.alpha, trunc.radius
    m1 = float(kernel.mass(y, [(-R, R)], 1.0 + alpha))
    m2 = float(kernel.mass(y, _beyond(R), 0.0))
    window = abs(y) + R + 1.0
    sup_fp = float(np.max(np.abs(f_prime(np.linspace(y - window, y + window, 101)))))
    return (_holder_norm(f_prime, alpha, window) * m1
            + (2.0 * f_sup + trunc.cap * sup_fp) * m2)


# ---------------------------------------------------------------------------
# QUADPACK with an error check
# ---------------------------------------------------------------------------

def quad_checked(f, a, b, tol=1e-8):
    """scipy.integrate.quad with an error check, at most 400 subintervals.

    QUADPACK's own warnings are suppressed: the returned error estimate is
    checked instead.  It fails when the estimate exceeds the tolerance by
    more than two orders of magnitude (the estimator is routinely
    pessimistic near integrable singularities, so a strict comparison
    would produce false alarms).
    """
    from scipy.integrate import IntegrationWarning, quad
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            value, err = quad(f, a, b, epsabs=tol, epsrel=tol, limit=400)
    except Exception as exc:  # pragma: no cover - scipy internal failures
        raise QuadratureFailure(f"quad failed on [{a}, {b}]: {exc}") from exc
    if not np.isfinite(value):
        raise QuadratureFailure(f"integral on [{a}, {b}] is not finite")
    if err > max(100.0 * tol, 1e-3 * max(1.0, abs(value))):
        raise QuadratureFailure(
            f"integral on [{a}, {b}] reached error {err:.2e} > tol {tol:.2e}"
        )
    return value


# ---------------------------------------------------------------------------
# the bump mollifier
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bump_norm():
    # normalisation of exp(-1/(1-t^2)) on (-1, 1)
    return quad_checked(lambda t: np.exp(-1.0 / (1.0 - t * t)), -1.0, 1.0, tol=1e-13)


def bump_tables(width):
    """``coefficients._mollifier_tables`` for the compactly supported bump
    exp(-1/(1-t^2)), t = u/width: positive-axis nodes, quadrature weights,
    even rho and odd rho' values."""
    x, w01 = gauss_legendre(coefficients._MOLL_NODES)
    u = 0.5 * width * (x + 1.0)
    qw = 0.5 * width * w01
    t = np.clip(u / width, 0.0, 1.0 - 1e-12)
    rho = np.exp(-1.0 / (1.0 - t * t)) / (_bump_norm() * width)
    rho_p = rho * (-2.0 * t / (1.0 - t * t) ** 2) / width
    return u, qw, rho, rho_p


@contextmanager
def bump_mollifier():
    """Every mollifier convolution of the lab uses the bump inside the block."""
    with mock.patch.object(coefficients, "_mollifier_tables", bump_tables):
        yield


# ---------------------------------------------------------------------------
# the power tail's scalar quadrature route
# ---------------------------------------------------------------------------

def dyadic_tail(f, a, tail_mass, tol=1e-8, sup_bound=None):
    """Sum int_a^inf f over at most 200 blocks [a 2^k, a 2^(k+1)].

    ``tail_mass(r)`` must return the total absolute mass of the underlying
    measure beyond radius r; together with a bound on |g| (declared via
    ``sup_bound`` or estimated from the blocks already seen) it yields a
    rigorous stopping criterion.
    """
    if a <= 0:
        raise ValueError("dyadic tail needs a positive starting radius")
    total = 0.0
    lo = a
    observed = 0.0
    for _ in range(200):
        hi = 2.0 * lo
        block = quad_checked(f, lo, hi, tol=tol)
        total += block
        dens_scale = max(tail_mass(lo) - tail_mass(hi), 1e-300)
        observed = max(observed, abs(block) / dens_scale)
        bound = sup_bound if sup_bound is not None else 2.0 * max(observed, 1e-12)
        remainder = bound * tail_mass(hi)
        if abs(block) < 0.25 * tol and remainder < 0.5 * tol:
            return total
        lo = hi
    raise QuadratureFailure(f"tail integral from {a} did not converge")


def stable_integral(kernel, y, g, lo=-np.inf, hi=np.inf, tol=_TOL, breakpoints=(),
                    g_bound=None):
    """The integral of g over [lo, hi] against a power-tail kernel, one side
    at a time: QUADPACK pieces cut at radius 1 and at ``breakpoints``, and
    a dyadic tail beyond."""
    del y  # the family is state independent
    total = 0.0
    if hi > 0 and max(lo, 0.0) < hi:
        total += _stable_side(kernel, g, max(lo, 0.0), hi, +1.0, tol, breakpoints,
                              g_bound)
    if lo < 0 and min(hi, 0.0) > lo:
        total += _stable_side(kernel, g, max(-min(hi, 0.0), 0.0), -lo, -1.0, tol,
                              breakpoints, g_bound)
    return total


def _stable_side(kernel, g, a, b, sign, tol, breakpoints, g_bound):
    # integrate over radii (a, b), actual points sign * r
    def f(r):
        return float(np.asarray(g(sign * r)).reshape(-1)[0]) * kernel._dens(r)

    cuts = sorted({a, min(b, max(a, 1.0)),
                   *(abs(p) for p in breakpoints if a < abs(p) < min(b, 1e300)
                     and np.sign(p) == sign)})
    total = 0.0
    if not np.isfinite(b):
        fin = max(cuts[-1], 1.0)
        cuts = sorted(set(cuts) | {fin})
        for u, v in zip(cuts[:-1], cuts[1:]):
            if v > u:
                total += quad_checked(f, u, v, tol=tol)
        total += dyadic_tail(
            f, fin, tail_mass=lambda r: float(kernel.one_tail_mass(r)),
            tol=tol, sup_bound=g_bound,
        )
    else:
        cuts = sorted(set(cuts) | {b})
        for u, v in zip(cuts[:-1], cuts[1:]):
            if v > u:
                total += quad_checked(f, u, v, tol=tol)
    return total


def counterexample_reference(gamma, scale, a, caps, horizon):
    """The stable counterexample's reference by QUADPACK: the two-sided
    big-jump size integral 2 scale int_a^hi x^-gamma dx, to infinity when
    it converges (gamma > 1) and to the largest cap otherwise."""
    from scipy.integrate import quad
    hi = np.inf if gamma > 1.0 else float(max(caps))
    ref, _ = quad(lambda x: 2.0 * scale * x**-gamma, a, hi)
    return ref * horizon
