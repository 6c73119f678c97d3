"""Path-dependent generator evaluation and martingale-problem residuals.

The generator of the lab's equations has a local part (conjugated through
the scale transform), a drift part driven by a bounded non-anticipating
path functional, and a nonlocal part coming from the jump kernel.  A path
functional steps through the time columns of X in order; it cannot read
the future because a step never sees a later column.  ``EquationX`` holds
the coefficients, kernel, truncation and functional, and every generator
function reads them from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._quad import gauss_legendre
from .coefficients import (_SEG_NODES, CoefficientSet, ConjugateTestFunction,
                           CubicTable, _segment_points, _walked, local_generator)
from .errors import MissingDriverRecord, ValidationError
from .kernels import (AtomRows, Kernel, TruncationFunction, _stable_nonlocal,
                      drift_correction, has_atoms, jump_operator, pushforward_integral)


# ---------------------------------------------------------------------------
# paths readable only up to their horizon
# ---------------------------------------------------------------------------

@dataclass
class CagladPath:
    """Left-limit path values on a time grid: the input path of the
    generator functions and of ``PathFunctional.evaluate``.

    ``restrict`` drops everything after t, so a functional evaluated on the
    result structurally cannot anticipate.  A simulated path is a row of
    an ``Ensemble`` (``ens.x[i]``, ``ens.dW[i]`` and its slice of the jump
    records), never a ``CagladPath``.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have equal shapes")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def horizon(self):
        return float(self.times[-1])

    def index_at(self, t):
        i = int(np.searchsorted(self.times, t + 1e-12)) - 1
        return max(i, 0)

    def value(self, s):
        return float(self.values[self.index_at(min(s, self.horizon))])

    def restrict(self, t):
        i = self.index_at(t)
        return CagladPath(self.times[: i + 1].copy(), self.values[: i + 1].copy())


# ---------------------------------------------------------------------------
# bounded non-anticipating path functionals
# ---------------------------------------------------------------------------

@dataclass
class PathFunctional:
    """Named bounded functional H(eta)(t) of the path restricted to [0, t].

    ``step(carry, x) -> (carry, H)`` reads one time column ``x`` of the
    path (one value per path) and the carry left by the columns before it,
    None at the first column, and returns the new carry and H at that
    time.  A step never sees a later column, so the functional cannot
    anticipate.  ``grid_values``, ``evaluate`` and the engine all run this
    one step.
    """

    name: str
    step: Callable

    def grid_values(self, times, x):
        """H(eta)(t_i) along the last axis of ``x``, which holds the values
        at ``times``; the shape matches ``x``."""
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        carry = None
        for i in range(x.shape[-1]):
            carry, out[..., i] = self.step(carry, x[..., i])
        return out

    def evaluate(self, path: CagladPath, t):
        """H(path)(t): the last grid value of the path restricted to [0, t]."""
        past = path.restrict(t)
        return float(self.grid_values(past.times, past.values)[-1])


def girsanov_weight(times, h, dW) -> np.ndarray:
    """Exponential weight kappa at ``times`` (kappa = 1 at the first) from
    a functional's grid values ``h`` there and the Brownian increments
    ``dW`` between them; the last axis is time.

    Multiplying terminal values by kappa_T realises the law in which the
    bounded functional acts as an extra drift through the diffusion
    coefficient.
    """
    if dW is None:
        raise MissingDriverRecord("Brownian increments are required for reweighting")
    h = np.asarray(h)[..., :-1]
    log_k = np.cumsum(h * dW - 0.5 * h**2 * np.diff(times), axis=-1)
    return np.exp(np.concatenate([np.zeros(log_k.shape[:-1] + (1,)), log_k], axis=-1))


def _constant_step(c):
    def step(carry, x):
        return None, np.full_like(x, c)
    return step


def zero_functional():
    return PathFunctional(name="zero", step=_constant_step(0.0))


def constant_functional(c):
    return PathFunctional(name=f"const({c})", step=_constant_step(float(c)))


def clamped_running_sup(cap=1.0):
    """Running supremum clipped to [-cap, cap]: bounded, 1-Lipschitz in sup norm."""
    def step(run, x):
        run = x if run is None else np.maximum(run, x)
        return run, np.clip(run, -cap, cap)

    return PathFunctional(name="clamped_running_sup", step=step)


def sin_left_limit(amplitude=1.0, frequency=1.0):
    """Bounded sinusoidal of the current left-limit value (Markovian case)."""
    def step(carry, x):
        return None, amplitude * np.sin(frequency * x)

    return PathFunctional(name="sin_left_limit", step=step)


FUNCTIONALS = {
    "zero": zero_functional,
    "clamped_running_sup": clamped_running_sup,
    "sin_left_limit": sin_left_limit,
}


def resolve_functional(name, **kwargs) -> PathFunctional:
    """The functional ``name`` names: ``const:<c>`` for a finite real ``c``,
    else a key of ``FUNCTIONALS`` (anything else is a ``ValidationError``)."""
    if name.startswith("const:"):
        text = name.split(":", 1)[1]
        try:
            c = float(text)
        except ValueError:
            c = math.nan
        if not math.isfinite(c):
            raise ValidationError(f"a constant functional needs a finite real, "
                                  f"got {text!r}")
        return constant_functional(c)
    if name not in FUNCTIONALS:
        raise ValidationError(f"unknown path functional {name!r}")
    return FUNCTIONALS[name](**kwargs)


# ---------------------------------------------------------------------------
# the original equation and its generator values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquationX:
    """The path-dependent equation of X: coefficients (diffusion and scale
    transform), jump kernel, truncation and bounded drift functional.
    ``kernel`` and ``functional`` are None when the equation has none."""

    coeffs: CoefficientSet
    kernel: Optional[Kernel] = None
    trunc: TruncationFunction = field(default_factory=TruncationFunction)
    functional: Optional[PathFunctional] = None


@dataclass(frozen=True)
class GeneratorValue:
    local: float
    drift: float
    jump: float

    @property
    def total(self):
        return self.local + self.drift + self.jump


def evaluate_generator(f: ConjugateTestFunction, eq: EquationX, path: CagladPath,
                       t) -> GeneratorValue:
    """Generator of the original equation on a path at time t."""
    transform = eq.coeffs.transform
    x_t = path.value(t)
    local = float(np.asarray(local_generator(f, transform, eq.coeffs.diffusion, x_t)))
    h_val = eq.functional.evaluate(path, t) if eq.functional is not None else 0.0
    fp = float(np.asarray(f.f_prime(transform, x_t)))
    drift = float(np.asarray(eq.coeffs.diffusion.sigma(np.asarray(x_t)))) * h_val * fp
    if eq.kernel is None:
        jump = 0.0
    else:
        fx, fpx = f.as_x_callables(transform)
        jump = jump_operator(fx, fpx, eq.kernel, eq.trunc, x_t, f_sup=f.bound)
    return GeneratorValue(local=local, drift=drift, jump=jump)


def evaluate_transformed_generator(phi: ConjugateTestFunction, eq: EquationX,
                                   y_path: CagladPath, t) -> GeneratorValue:
    """Generator of the transformed equation on an image-space path.

    The local part is the classical second-order term plus the drift
    correction; the nonlocal part sums the atoms of the pushforward of
    the kernel (``pushforward_integral``, which raises ``ValidationError``
    for a power tail: under the identity transform it needs, both sides
    would be one integral).  The path up to t is inverted once: the drift
    correction and the pushforward read its state x_t and h(x_t), and the
    drift functional, that of the original path, reads the preimage.
    """
    transform, kernel, trunc = eq.coeffs.transform, eq.kernel, eq.trunc
    past = y_path.restrict(t)
    x_past = CagladPath(past.times, transform.inverse(past.values))
    y_t, x_t = past.values[-1], x_past.values[-1]
    hx = transform.forward(x_t)  # h(x_t), the image the pushforward starts from
    s0 = float(eq.coeffs.diffusion.sigma(np.asarray(x_t)) * transform.deriv(x_t))
    b = (float(drift_correction(kernel, transform, trunc, x_t, hx))
         if kernel is not None else 0.0)
    phi_p = float(np.asarray(phi.phi_prime(np.asarray(y_t))))
    local = 0.5 * s0**2 * float(np.asarray(phi.phi_second(np.asarray(y_t)))) + b * phi_p
    h_val = eq.functional.evaluate(x_past, t) if eq.functional is not None else 0.0
    drift = s0 * h_val * phi_p

    if kernel is None:
        jump = 0.0
    else:
        phi_y = float(np.asarray(phi.phi(np.asarray(y_t))))

        def g(z):
            z = np.asarray(z, dtype=float)
            return phi.phi(y_t + z) - phi_y - np.asarray(trunc(z)) * phi_p

        jump = float(pushforward_integral(kernel, transform, x_t, hx, g))
    return GeneratorValue(local=local, drift=drift, jump=jump)


def conjugation_residual(phi: ConjugateTestFunction, eq: EquationX, path: CagladPath, t):
    """|generator on the original path - transformed generator on its image|.

    The two sides are assembled through different integrals; their
    pointwise agreement is the computable content of the equivalence
    between the two formulations.
    """
    lhs = evaluate_generator(phi, eq, path, t).total
    y_path = CagladPath(path.times, eq.coeffs.transform.forward(path.values))
    rhs = evaluate_transformed_generator(phi, eq, y_path, t).total
    return abs(lhs - rhs)


def law_reference(eq: EquationX, x0, horizon, gs, nodes) -> np.ndarray:
    """E[g(X_T) | X_0 = x0] at T = ``horizon`` for each g of ``gs``, without
    kernel or drift functional and with a constant sigma: the generator in
    Feller form, (1/m) (f'/s)' with s = exp(-2 (beta - beta(0)) / sigma^2) and
    m = 2 / (sigma^2 s), as the reflected birth-death chain of Etore (2006) on
    ``nodes`` uniform nodes over the transform's domain.  Its rates come from
    the cells' scale and speed integrals by the potential's Gauss rule (a
    node's mass is half of each adjacent cell's), never from beta'.  It is
    reversible under the masses, so one ``eigh`` solves it exactly in time;
    linear interpolation at x0 keeps the error second order in the spacing."""
    beta, sigma2 = eq.coeffs.drift.beta, eq.coeffs.diffusion.sigma_min ** 2
    grid = np.linspace(*eq.coeffs.transform.domain, nodes)
    gx, gw = gauss_legendre(_SEG_NODES)
    pts, half = _segment_points(grid, gx)
    pot = 2.0 * (beta(pts) - beta(np.zeros(1))) / sigma2
    rate = 1.0 / ((np.exp(-pot) @ gw) * half)  # 1 / the scale integral of a cell
    speed = (np.exp(pot) @ gw) * half * (2.0 / sigma2)
    r = 1.0 / np.sqrt(0.5 * (np.pad(speed, (0, 1)) + np.pad(speed, (1, 0))))  # mass^-1/2
    k = np.diag(rate, 1) + np.diag(rate, -1)
    np.fill_diagonal(k, -k.sum(axis=1))
    lam, v = np.linalg.eigh(r[:, None] * k * r)
    g = np.stack([fn(grid) for fn in gs], axis=-1) / r[:, None]
    u = r[:, None] * (v @ (np.exp(horizon * lam)[:, None] * (v.T @ g)))
    return np.array([np.interp(x0, grid, col) for col in u.T])


# ---------------------------------------------------------------------------
# vectorized generator along grids and martingale residuals
# ---------------------------------------------------------------------------

_TABLE_NODES = 257  # quantile nodes of a power tail's jump-term table
_BLOCK = 2**15  # grid values per martingale or compensator block: bounds temporaries


@dataclass(frozen=True)
class GeneratorState:
    """Profile-free inputs of the generator of f = phi o h on a path array.

    With y = h(x): f(x) = phi(y), f'(x) = phi'(y) h'(x), the local term is
    half * (sigma(x) h'(x))^2 * phi''(y), and an atom at w contributes
    phi(h(x + w)).  None of h(x), h'(x), sigma(x), the drift functional's
    grid values, the kernel's atoms at x or their images depends on phi,
    so one state serves every profile evaluated on the same paths.  ``hx``
    is h evaluated at ``x``, not a simulated Y, so that f(X) is phi(h(X))
    exactly.  ``eq`` is the equation the state was built from; the grid
    functions read its kernel, truncation and transform from here.  ``hx``
    may be ``x`` itself; an ensemble's arrays are read-only.
    """

    eq: EquationX
    times: np.ndarray
    x: np.ndarray
    hx: np.ndarray
    hpx: np.ndarray
    half_s0_sq: np.ndarray  # 0.5 * (sigma h')^2, the local term per unit phi''
    hv: object            # functional grid values, or 0.0 without a functional
    sigma_hv: object      # sigma * hv, the drift term per unit f'; None without
    atoms: Optional[AtomRows]  # kernel.atoms(x) of an atomic kernel, else None
    atom_images: tuple    # h(x + w) per atom column of ``atoms``, else ()
    jump_tables: Optional[dict]  # profile name -> _jump_table, else None


def generator_state(eq: EquationX, times, x, jump_tables) -> GeneratorState:
    """Evaluate the transform, sigma and the functional once on the path
    array ``x`` (last axis = time; one path or many).

    ``jump_tables`` is ``jump_tables(eq, profiles, states)`` over the
    states the caller reads, so that a power tail's jump term does not
    depend on which rows ``x`` holds.
    """
    transform = eq.coeffs.transform
    times = np.asarray(times, dtype=float)
    x = np.asarray(x, dtype=float)
    hv = 0.0 if eq.functional is None else eq.functional.grid_values(times, x)
    atoms = eq.kernel.atoms(x) if has_atoms(eq.kernel) else None
    images = () if atoms is None else tuple(np.asarray(transform.forward(x + w))
                                            for w in np.moveaxis(atoms.pos, -1, 0))
    hx, hpx = transform.forward_and_deriv(x)
    sigma = np.asarray(eq.coeffs.diffusion.sigma(x))
    return GeneratorState(eq=eq, times=times, x=x, hx=hx, hpx=hpx,
                          half_s0_sq=0.5 * (sigma * hpx) ** 2, hv=hv,
                          sigma_hv=None if eq.functional is None else sigma * hv,
                          atoms=atoms, atom_images=images, jump_tables=jump_tables)


def _jump_table(f: ConjugateTestFunction, eq: EquationX, x):
    """The jump term of a power-tail kernel as a function of x, interpolated
    from nodes at the quantiles of the states ``x`` (far below Monte Carlo
    error), with a midpoint added in each of the wider half of their gaps."""
    kernel, trunc = eq.kernel, eq.trunc
    fx, fpx = f.as_x_callables(eq.coeffs.transform)
    lo, hi = float(np.min(x)), float(np.max(x))
    if hi - lo < 1e-9:
        val = jump_operator(fx, fpx, kernel, trunc, lo, f_sup=f.bound)
        return lambda u: np.full_like(u, val)
    # nodes at the quantiles of the states, so that heavy-tailed paths far
    # out do not thin the table where most states are; the quantiles thin
    # out in the tails, so the widest gaps are halved
    nodes = np.unique(np.quantile(x, np.linspace(0.0, 1.0, _TABLE_NODES)))
    gaps = np.diff(nodes)
    wide = np.argsort(gaps)[len(gaps) // 2:]
    nodes = np.union1d(nodes, nodes[wide] + 0.5 * gaps[wide])
    return CubicTable(nodes, _stable_nonlocal(kernel, trunc, nodes, fx, fpx, f_sup=f.bound,
                                              subpanel_budget=512))


def jump_tables(eq: EquationX, profiles, x):
    """Profile name -> power-tail jump-term table over ``x``; None without
    kernel or with atoms."""
    return (None if eq.kernel is None or has_atoms(eq.kernel)
            else {f.name: _jump_table(f, eq, x) for f in profiles})


def _jump_term_grid(f: ConjugateTestFunction, state: GeneratorState, base, fp):
    """Nonlocal generator term on the state's grid (``base`` = f(x), ``fp`` = f'(x)).

    Kernels with atoms are summed exactly over each state's atoms, which
    the state holds; a power tail reads the profile's table from
    ``state.jump_tables``.
    """
    x, kernel, trunc = state.x, state.eq.kernel, state.eq.trunc
    if kernel is None:
        return 0.0
    if state.atoms is not None:
        out = np.zeros_like(x)
        for j, hxw in enumerate(state.atom_images):
            term = f.phi(hxw) - base
            term -= np.asarray(trunc(state.atoms.pos[..., j])) * fp
            term *= state.atoms.mass[..., j]
            out += term
        return out
    return state.jump_tables[f.name](x)


def generator_grid(f: ConjugateTestFunction, state: GeneratorState, fx):
    """Generator values along the state's path(s) (last axis = time).

    ``fx`` is phi(state.hx), which the residual needs as well.  The terms
    are accumulated in place, so a profile holds a few arrays at a time.
    """
    gen = state.half_s0_sq * f.phi_second(state.hx)    # local term
    fp = f.phi_prime(state.hx) * state.hpx
    if state.sigma_hv is not None:
        gen += state.sigma_hv * fp                      # drift term
    gen += _jump_term_grid(f, state, fx, fp)
    return gen


def martingale_residual_ensemble(state: GeneratorState, f: ConjugateTestFunction):
    """Residual paths f(X_t) - f(x_0) - int_0^t (generator) ds on the state's
    grid, one row per path (a single path gives one row).

    Left-endpoint rule with left limits, matching the predictable
    integrand of the defining property.  Build ``state`` once with
    ``generator_state`` to share it across profiles.
    """
    fx = f.phi(state.hx)
    gen = generator_grid(f, state, fx)
    integ = gen[..., :-1]
    integ *= np.diff(state.times)
    np.cumsum(integ, axis=-1, out=integ)
    res = fx - fx[..., :1]
    res[..., 1:] -= integ
    return res


def terminal_weights(functional: PathFunctional, ens) -> np.ndarray:
    """The terminal Girsanov weight kappa_T of every path of ``ens`` under
    ``functional``, read in row blocks of about ``_BLOCK`` grid values on
    the forked workers of ``_walked``, as ``martingale_columns`` reads its
    rows, so the caller touches no worker's rows of ``x`` or ``dW``."""
    n_paths, n_times = ens.x.shape

    def block(paths):
        r = slice(paths.start, paths.stop)
        h = functional.grid_values(ens.times, ens.x[r])
        return girsanov_weight(ens.times, h, ens.dW[r])[:, -1].copy()

    return np.concatenate(_walked(block, n_paths, n_times, max(1, _BLOCK // n_times)))


def martingale_columns(eq: EquationX, ens, profiles, cols, tables):
    """Each profile's residual at the time columns ``cols`` of every path
    of ``ens`` (profiles x paths x columns), the terminal Girsanov weight
    (None without a functional) and the pasts X and its running sup at
    ``cols`` (2 x paths x columns), read in row blocks of about ``_BLOCK``
    grid values on the forked workers of ``_walked``, which only read
    ``ens``; so the caller touches no worker's rows.  A row's numbers do
    not depend on its block: a power tail's jump term is tabulated once per
    profile over all states, in ``tables = jump_tables(eq, profiles, ens.x)``."""
    n_paths, n_times = ens.x.shape

    def block(paths):
        r = slice(paths.start, paths.stop)
        state = generator_state(eq, ens.times, ens.x[r], tables)
        out = np.stack([martingale_residual_ensemble(state, f)[:, cols] for f in profiles])
        kappa = (None if eq.functional is None
                 else girsanov_weight(ens.times, state.hv, ens.dW[r])[:, -1].copy())
        sup = np.maximum.accumulate(state.x, axis=-1)
        return out, kappa, np.stack([state.x[:, cols], sup[:, cols]])

    out, kappa, pasts = zip(*_walked(block, n_paths, n_times, max(1, _BLOCK // n_times)))
    return (np.concatenate(out, axis=1),
            None if eq.functional is None else np.concatenate(kappa),
            np.concatenate(pasts, axis=1))
