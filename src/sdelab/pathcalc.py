"""Pathwise calculus: regularization estimator of the quadratic variation,
the remainder's quadratic variation, and the integrability diagnostics
that separate processes with a zero-quadratic-variation remainder from
those without one.

Every quadratic variation goes through ``qv_sweep``, which reads an array
of paths on the simulation grid (last axis = time); window widths must be
integer multiples of the step.  Nothing here attempts jump detection:
jump marks are taken from the simulation records, which are exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import CubicTable
from .errors import GridMismatch, MissingDriverRecord, ValidationError
from .generator import EquationX
from .kernels import atom_jumps, has_atoms, stable_threshold_expectation


# ---------------------------------------------------------------------------
# the regularization estimator
# ---------------------------------------------------------------------------

def _grid_step(times):
    dt = np.diff(times)
    if len(dt) == 0 or not np.allclose(dt, dt[0], rtol=1e-9, atol=1e-12):
        raise GridMismatch("the time grid must be uniform")
    return float(dt[0])


def _window_steps(epsilon, dt):
    m = epsilon / dt
    if abs(m - round(m)) > 1e-6 * max(1.0, m):
        raise GridMismatch(f"epsilon {epsilon} is not a grid multiple of {dt}")
    m = int(round(m))
    if m < 1:
        raise GridMismatch("epsilon must be at least one grid step")
    return m


def _time_index(times, t, dt):
    k = t / dt
    if abs(k - round(k)) > 1e-6 * max(1.0, k):
        raise GridMismatch(f"t={t} is not on the grid")
    k = int(round(k))
    if not 0 < k <= len(times) - 1:
        raise GridMismatch(f"t={t} outside the grid")
    return k


def _qv_core(values, m, idx_t, dt, epsilon):
    """(1/eps) sum_{t_i < t} (v_{(t_i+eps) ^ t} - v_{t_i})^2 dt."""
    i = np.arange(idx_t)
    # C-contiguous differences: a row sums as that row alone, bit for bit
    d = np.take(values, np.minimum(i + m, idx_t), axis=-1) - np.take(values, i, axis=-1)
    return np.sum(d * d, axis=-1) * dt / epsilon


def qv_sweep(times, values, epsilons, t):
    """Regularization estimates of the quadratic variation at ``t`` of
    every path in ``values`` (last axis = time, on ``times``), one row per
    window of ``epsilons`` in descending order; a path's estimates do not
    depend on the other paths, bit for bit.

    Checked once (``GridMismatch``): a uniform grid, ``t`` a grid time
    after the first, and each window a grid multiple below ``t``.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    dt = _grid_step(times)
    if values.shape[-1] != len(times):
        raise GridMismatch("the values' last axis must match the time grid")
    idx_t = _time_index(times, t, dt)
    eps = np.sort(np.asarray(epsilons, dtype=float))[::-1]
    if len(eps) and eps[0] >= t:
        raise GridMismatch("epsilon must be smaller than t")
    return np.stack([_qv_core(values, _window_steps(e, dt), idx_t, dt, e) for e in eps])


def aligned_window_ladder(times):
    """Window widths near 1/10, 1/20, 1/40 and 1/80 of the horizon, snapped
    to the grid (widths must be integer step multiples), descending,
    deduplicated."""
    times = np.asarray(times, dtype=float)
    dt = _grid_step(times)
    horizon = float(times[-1] - times[0])
    out = []
    for f in (0.1, 0.05, 0.025, 0.0125):
        m = max(int(round(f * horizon / dt)), 1)
        eps = m * dt
        if eps < horizon and (not out or eps < out[-1]):
            out.append(eps)
    if not out:
        raise GridMismatch("no admissible window widths on this grid")
    return tuple(out)


# ---------------------------------------------------------------------------
# integrability growth table (big-jump image variation)
# ---------------------------------------------------------------------------

@dataclass
class IntegrabilityGrowthTable:
    threshold: float
    sample_sizes: np.ndarray
    means: np.ndarray
    caps: np.ndarray
    capped_means: np.ndarray


def big_jump_sums(phi, ensemble, a, caps=()) -> np.ndarray:
    """Per-path sums of the big-jump image increments, shape
    ``(1 + len(caps), n_paths)``.

    Row 0 sums |phi(X_- + dX) - phi(X_-)| over the path's jumps larger
    than ``a``; row k + 1 sums only the increments at most ``caps[k]``.
    The rows reduce one ensemble (or one block of a run) to O(paths)
    floats, which ``dirichlet_condition_intY`` turns into its table.
    """
    P = ensemble.n_paths
    jp = ensemble.jump_path
    big = np.abs(ensemble.jump_w) > a
    inc = np.abs(np.asarray(phi(ensemble.jump_x_pre + ensemble.jump_w))
                 - np.asarray(phi(ensemble.jump_x_pre)))
    sums = np.zeros((1 + len(caps), P))
    for row, keep in zip(sums, [big] + [big & (inc <= M) for M in caps]):
        if len(jp):
            np.add.at(row, jp[keep], inc[keep])
    return sums


def dirichlet_condition_intY(sums, active, a, sample_sizes,
                             caps) -> IntegrabilityGrowthTable:
    """Growth table of the summed big-jump image increments.

    ``sums`` and ``active`` hold one column and one flag per path, in path
    order: the rows of ``big_jump_sums`` for the cap ladder ``caps`` (those
    of several blocks concatenated along the paths) and the ensemble's
    ``active``.  For each n of ``sample_sizes`` up to the active count, the
    mean over the first n active paths of the sum over jumps larger than
    ``a``; and the mean of each capped row over all active paths, for
    comparison against the truncated tail integrals.  This is a
    diagnostic, never a proof.  Fewer than two increasing caps, ``sums``
    without row 0 and one row per cap for every path, or no sample size
    up to the active count raise ``ValidationError``.
    """
    caps = np.asarray(caps, dtype=float)
    if caps.ndim != 1 or len(caps) < 2 or np.any(np.diff(caps) <= 0):
        raise ValidationError(f"caps {caps} are not a ladder of increasing values")
    if np.ndim(sums) != 2 or np.shape(sums) != (1 + len(caps), len(active)):
        raise ValidationError(
            f"sums of shape {np.shape(sums)} do not hold row 0 and one row per "
            f"cap for each of {len(active)} paths")
    active_sums = sums[:, active]
    sizes = np.asarray(sample_sizes, dtype=int)
    ns = [int(n) for n in sizes if n <= active_sums.shape[1]]
    if not ns:
        raise ValidationError(f"no sample size within {active_sums.shape[1]} paths")
    return IntegrabilityGrowthTable(
        threshold=float(a), sample_sizes=np.asarray(ns, dtype=int),
        means=np.asarray([float(np.mean(active_sums[0, :n])) for n in ns]),
        caps=caps,
        capped_means=np.asarray([float(np.mean(row)) for row in active_sums[1:]]))


# ---------------------------------------------------------------------------
# remainder reconstruction and its quadratic variation
# ---------------------------------------------------------------------------

_COMPENSATOR_NODES = 129  # table size of a power tail's compensator


def _phi_jump_compensator(eq: EquationX, delta, phi, x_lo, x_hi,
                          phi_bound) -> Callable:
    """Vectorized x -> integral of the image increment over the simulated
    (big) jump region of ``eq.kernel``; matches the cutoff geometry of the
    engine.  Atoms are summed exactly at every state; a power tail, which
    needs the identity transform, is tabulated from the vectorized panel
    sum on ``_COMPENSATOR_NODES`` even nodes over [x_lo, x_hi]."""
    kernel, transform = eq.kernel, eq.coeffs.transform
    if kernel is None:
        return lambda x: np.zeros_like(np.asarray(x, dtype=float))

    if has_atoms(kernel):
        def fn(x):
            x = np.asarray(x, dtype=float)
            atoms, z = atom_jumps(kernel, transform, x, transform.forward(x))
            inc = np.asarray(phi(x[..., None] + atoms.pos)) - np.asarray(phi(x))[..., None]
            return atoms.sum(atoms.mass * np.where(np.abs(z) > delta, inc, 0.0))
        return fn

    if not transform.is_identity:
        raise MissingDriverRecord(
            "remainder reconstruction with a power tail needs the identity transform"
        )

    slope = float(np.max(np.abs(
        np.diff(phi(np.linspace(x_lo - 1, x_hi + 1, 257)))
        / np.diff(np.linspace(x_lo - 1, x_hi + 1, 257))))) + 1e-9
    xs = (np.linspace(x_lo, x_hi, _COMPENSATOR_NODES) if x_hi - x_lo > 1e-9
          else np.asarray([x_lo]))
    vals = stable_threshold_expectation(
        kernel, xs, lambda xc, w: np.asarray(phi(xc + w)) - np.asarray(phi(xc)),
        delta, g_bound=2.0 * phi_bound, g_slope=slope)
    if len(xs) == 1:
        c = float(vals[0])
        return lambda x: np.full_like(np.asarray(x, dtype=float), c)
    return CubicTable(xs, vals)


@dataclass
class GammaQVReport:
    mean_qv: np.ndarray  # one per window, widest first

    @property
    def final(self):
        return float(self.mean_qv[-1])

    def decreasing(self):
        return bool(np.all(np.diff(self.mean_qv) < 0))


def gamma_residual_qv(ensemble, phi, phi_prime, eq: EquationX, epsilons,
                      phi_bound=None, t=None) -> GammaQVReport:
    """Quadratic variation of the reconstructed orthogonal remainder of
    the Markovian part of ``eq`` (its drift functional is not read).

    The remainder is the image path minus its reconstructed continuous
    martingale integral and compensated jump part, built from the recorded
    Brownian increments and jump marks.  Compensation integrates the
    kernel over the explicitly simulated (big) region only, matching what
    the engine actually produced.
    """
    if ensemble.dW is None or ensemble.dW.size == 0:
        raise MissingDriverRecord("ensemble lacks Brownian increment records")
    times = ensemble.times
    dt = _grid_step(times)
    act = ensemble.active
    X = ensemble.x[act]
    dW = ensemble.dW[act]
    n = X.shape[1] - 1

    sig = np.asarray(eq.coeffs.diffusion.sigma(X[:, :-1]))
    stoch = np.cumsum(np.asarray(phi_prime(X[:, :-1])) * sig * dW, axis=-1)
    stoch = np.concatenate([np.zeros((X.shape[0], 1)), stoch], axis=-1)

    # cumulative jump image sums on the grid
    jump_cum = np.zeros_like(X)
    jp_all = ensemble.jump_path
    if len(jp_all):
        act_idx = np.flatnonzero(act)
        remap = -np.ones(ensemble.n_paths, dtype=int)
        remap[act_idx] = np.arange(len(act_idx))
        keep = remap[jp_all] >= 0
        rows = remap[jp_all[keep]]
        node = np.clip(np.ceil((ensemble.jump_time[keep] - 1e-12) / dt).astype(int),
                       1, n)
        inc = (np.asarray(phi(ensemble.jump_x_pre[keep] + ensemble.jump_w[keep]))
               - np.asarray(phi(ensemble.jump_x_pre[keep])))
        np.add.at(jump_cum, (rows, node), inc)
        jump_cum = np.cumsum(jump_cum, axis=-1)

    bound = phi_bound if phi_bound is not None else float(
        np.max(np.abs(phi(np.linspace(np.min(X), np.max(X), 33)))) + 1.0)
    comp_fn = _phi_jump_compensator(eq, ensemble.config.small_jump_cutoff, phi,
                                    float(np.min(X)), float(np.max(X)), bound)
    comp = np.cumsum(comp_fn(X[:, :-1]) * dt, axis=-1)
    comp = np.concatenate([np.zeros((X.shape[0], 1)), comp], axis=-1)

    gamma = (np.asarray(phi(X)) - np.asarray(phi(X[:, :1]))
             - stoch - (jump_cum - comp))

    qv = qv_sweep(times, gamma, epsilons, float(times[-1]) if t is None else t)
    return GammaQVReport(mean_qv=np.mean(qv, axis=-1))


# ---------------------------------------------------------------------------
# structure of the compensator in time, and the final verdict
# ---------------------------------------------------------------------------

@dataclass
class DirichletReport:
    growth: IntegrabilityGrowthTable
    verdict: str

    def to_dict(self):
        g = self.growth
        return {
            "verdict": self.verdict,
            "growth": {
                "threshold": g.threshold,
                "sample_sizes": [int(v) for v in g.sample_sizes],
                "means": [float(v) for v in g.means],
                "caps": [float(v) for v in g.caps],
                "capped_means": [float(v) for v in g.capped_means],
            },
        }


def classify_dirichlet(growth: IntegrabilityGrowthTable, reference) -> DirichletReport:
    """Combine the diagnostics into a three-way verdict.

    The cap ladder reads the tail (its summands are bounded, so its means
    are statistically solid): capped means that grow by more than the
    band factor 2 from the first cap to the last track a divergent tail
    integral, and a plateau (growth below 1.5) says the integral
    converges.  ``reference`` is the tail integral when it converges, its
    truncation at the largest cap otherwise.  "inconsistent" requires
    positive evidence: a growing cap ladder, or a terminal mean above the
    factor-2 envelope of ``reference``.  "consistent_with_dirichlet"
    requires a plateau and a terminal mean inside that envelope; anything
    else stays "inconclusive", and so does a table whose last mean is 0:
    it read no big jump.
    """
    band = 2.0
    last = float(growth.means[-1])
    ratio = float(growth.capped_means[-1]) / max(float(growth.capped_means[0]), 1e-12)
    if ratio > band or last > band**2 * reference:
        verdict = "inconsistent"
    elif ratio < 1.5 and 0.0 < last and reference / band <= last <= band**2 * reference:
        verdict = "consistent_with_dirichlet"
    else:
        verdict = "inconclusive"
    return DirichletReport(growth=growth, verdict=verdict)
