"""State-dependent jump kernels and the induced operators.

A kernel assigns to every state y a measure Q(y, dx) on the jump sizes,
with no mass at 0.  Two families are provided, each with one route per
kind of integral.  The two-sided power tail (infinite activity) gives its
masses of |x|^p over bands of radii in closed form and its compensated
profiles by a vectorized panel walk along each ray; it needs the identity
transform.  Kernels with finitely many atoms at every state
(``AtomKernel``: a rate times a discrete law, or a table of per-state
atoms) give every integral as an exact sum over ``atoms(x)``.  On top of
these sit the moment/total-variation diagnostics, the pushforward of the
atoms through a scale transform, the induced drift correction, and the
nonlocal generator term.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from ._quad import gauss_legendre, gauss_legendre_01
from .coefficients import ScaleTransform
from .errors import (DivergentMoment, IntensityBoundViolated, QuadratureFailure,
                     RangeError, ValidationError)

_INNER_NODES = 16
_TOL = 1e-8  # tolerance of the power tail's panel walk


def _open_above(a):
    return float(np.nextafter(a, np.inf))


def _beyond(r):
    """The jump sizes with |x| > r, as two closed intervals."""
    return [(_open_above(r), np.inf), (-np.inf, -_open_above(r))]


# ---------------------------------------------------------------------------
# truncation function
# ---------------------------------------------------------------------------

@dataclass
class TruncationFunction:
    """The clamp to [-cap, cap]: odd, bounded by its cap and, since
    ``radius <= cap``, the identity inside its radius."""

    radius: float = 1.0
    cap: float = 1.0

    def __post_init__(self):
        if not (np.all(np.isfinite((self.radius, self.cap)))
                and 0 < self.radius <= self.cap):
            raise ValueError("need finite 0 < radius <= cap")

    def __call__(self, x):
        return np.clip(np.asarray(x, dtype=float), -self.cap, self.cap)


# ---------------------------------------------------------------------------
# the jump law of a finite-activity kernel
# ---------------------------------------------------------------------------

@dataclass
class DiscreteLaw:
    """Finitely many atoms (position, probability); no atom at 0."""

    atoms: tuple

    def __post_init__(self):
        pos = np.asarray([a[0] for a in self.atoms], dtype=float)
        prob = np.asarray([a[1] for a in self.atoms], dtype=float)
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(prob))):
            raise ValueError("atom positions and probabilities must be finite")
        if np.any(pos == 0.0):
            raise ValueError("jump laws must not charge 0")
        if np.any(prob < 0) or abs(prob.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be nonnegative and sum to 1")
        self.positions = pos
        self.probs = prob


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass
class StableTailKernel:
    """Two-sided power-tail kernel: density scale * |x|^(-1-gamma) per side.

    The intensity of jumps beyond any positive radius is finite, total
    activity is infinite.  The moment hypothesis holds iff the declared
    exponent alpha exceeds gamma - 1.
    """

    gamma: float
    scale: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.gamma < 2.0:
            raise ValueError("gamma must lie in (0, 2)")
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be finite and positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")

    # density of one side, as a function of |x|
    def _dens(self, r):
        return self.scale * r ** (-1.0 - self.gamma)

    def one_tail_mass(self, a):
        """Mass of (a, inf) on one side, a > 0 (closed form)."""
        a = np.asarray(a, dtype=float)
        return self.scale * a ** (-self.gamma) / self.gamma

    def mass(self, y, intervals, p):
        """The sum over ``intervals`` of int_lo^hi |x|^p Q(y, dx) at every
        state of ``y``, in closed form per side; infinite where the integral
        diverges (at 0 for p <= gamma, at infinity for p >= gamma)."""
        total = sum(self._band(a, b, p) for lo, hi in intervals
                    for a, b in ((max(lo, 0.0), hi), (max(-hi, 0.0), -lo)) if a < b)
        return np.full(np.shape(y), float(total))

    def _band(self, a, b, p):
        """int_a^b r^p scale r^(-1-gamma) dr over radii 0 <= a < b <= inf."""
        q = p - self.gamma
        a, b = np.float64(a), np.float64(b)
        with np.errstate(divide="ignore"):
            if q < 0:  # scale r^q / -q is the mass beyond r
                return self.scale * a**q / -q - self.scale * b**q / -q
            if q > 0:  # scale r^q / q is the mass inside r
                return self.scale * b**q / q - self.scale * a**q / q
            return self.scale * np.log(b / a)

    def sample_two_tail(self, u_side, u_mag, w_lo, w_hi):
        """Exact inverse-CDF draw from the two-sided tail restriction."""
        m_neg = self.one_tail_mass(np.abs(w_lo))
        m_pos = self.one_tail_mass(np.abs(w_hi))
        go_pos = u_side < m_pos / (m_pos + m_neg)
        stretch = (1.0 - u_mag) ** (-1.0 / self.gamma)
        return np.where(go_pos, np.abs(w_hi) * stretch, -(np.abs(w_lo) * stretch))

    @property
    def support_radius(self):
        return np.inf


class AtomRows(NamedTuple):
    """The atoms of a batch of states ``x``, one padded row per state.

    ``mass`` has shape ``x.shape + (k,)``.  ``pos`` has the same shape, or
    shape ``(k,)`` when every state has its atoms at the same positions.
    A row holds ``count`` real atoms (one count for every row or one per
    row) followed by padding at 0 with mass 0, which is never a big jump.
    """

    pos: np.ndarray
    mass: np.ndarray
    count: object

    @property
    def fixed(self):
        """True when every state has its atoms at the same positions."""
        return self.pos.ndim == 1

    def sum(self, a, count=None):
        """Each row's sum of ``a`` over its first ``count`` entries (its
        real atoms by default; one count for every row or one per row),
        added as ``np.sum`` adds a 1-d array of that length (pairwise from
        8 terms on)."""
        count = self.count if count is None else count
        if np.ndim(count) == 0:
            return np.sum(a[..., :count], axis=-1)
        out = np.zeros(a.shape[:-1])
        for c in np.unique(count):
            sel = count == c
            out[sel] = np.sum(a[sel, :c], axis=-1)
        return out


class AtomKernel:
    """A kernel with finitely many atoms at every state.

    A subclass describes itself by ``atoms(x) -> AtomRows``,
    ``support_radius`` and ``alpha``; the integrals below read the atoms
    only.
    """

    def integral(self, y, g, lo=-np.inf, hi=np.inf):
        """The sum of mass * g(position) over the atoms of the state ``y``
        that lie in [lo, hi]."""
        pos, mass, n = self.atoms(float(y))
        pos, mass = pos[:n], mass[:n]
        sel = (pos >= lo) & (pos <= hi)
        if not np.any(sel):
            return 0.0
        return float(np.sum(mass[sel] * np.asarray(g(pos[sel]))))

    def mass(self, y, intervals, p):
        """The sum over ``intervals`` of int_lo^hi |x|^p Q(y, dx) at every
        state of ``y``: mass * |position|^p over the atoms in [lo, hi]."""
        y = np.asarray(y, dtype=float)
        atoms = self.atoms(y)
        weight = atoms.mass * np.abs(atoms.pos) ** p
        return sum((atoms.sum(weight * ((atoms.pos >= lo) & (atoms.pos <= hi)))
                    for lo, hi in intervals), np.zeros(y.shape))


def _as_rate(rate) -> Callable:
    if callable(rate):
        return rate
    return lambda y, _c=float(rate): np.full_like(np.asarray(y, dtype=float), _c)


@dataclass
class FiniteActivityKernel(AtomKernel):
    """Kernel rate(y) * law(dx) with a finite total rate and a discrete law."""

    rate: Union[float, Callable]
    law: DiscreteLaw
    alpha: float = 1.0

    def __post_init__(self):
        if not isinstance(self.law, DiscreteLaw):
            raise ValueError(f"the jump law must be a DiscreteLaw, got "
                             f"{type(self.law).__name__}")
        if not callable(self.rate) and not 0.0 <= float(self.rate) < np.inf:
            raise ValueError("a constant rate must be finite and nonnegative")
        self._rate = _as_rate(self.rate)

    def rate_at(self, y):
        """The rate at the states ``y``; a NaN, infinite or negative value
        raises ``IntensityBoundViolated``."""
        rate = np.asarray(self._rate(np.asarray(y, dtype=float)))
        bad = ~((rate >= 0) & (rate < np.inf))
        if np.any(bad):
            raise IntensityBoundViolated(f"the jump rate must be finite and "
                                         f"nonnegative, got {float(rate[bad].flat[0])}")
        return rate

    def atoms(self, x) -> AtomRows:
        """The law's atoms at the states ``x``: the same positions for
        every state, masses ``rate(x) * p`` (a read-only broadcast of
        ``rate * p`` for a constant rate)."""
        x = np.asarray(x, dtype=float)
        law = self.law
        rate = self.rate_at(x)[..., None] if callable(self.rate) else float(self.rate)
        return AtomRows(law.positions,
                        np.broadcast_to(rate * law.probs, x.shape + law.probs.shape),
                        len(law.positions))

    @property
    def support_radius(self):
        return float(np.max(np.abs(self.law.positions)))


@dataclass
class TabulatedKernel(AtomKernel):
    """Per-state discrete measures on a grid of states (nearest lookup).

    One table holds the measures: ``pos_tab`` and ``mass_tab`` hold each
    grid state's atoms in one row, padded with zero-mass atoms at 0 to a
    (grid states, atoms) table, and ``n_atoms`` counts the real atoms of
    each row.  A state reads the row that ``_nearest`` gives it.
    """

    y_grid: np.ndarray
    measures: tuple  # per grid state: tuple of (position, mass)
    alpha: float = 1.0

    def __post_init__(self):
        self.y_grid = np.asarray(self.y_grid, dtype=float)
        if not (self.y_grid.ndim == 1 and self.y_grid.size
                and np.all(np.isfinite(self.y_grid))):
            raise ValueError("y_grid must be a non-empty 1-d array of finite states")
        if len(self.measures) != len(self.y_grid):
            raise ValueError("one measure per grid state required")
        self.n_atoms = np.asarray([len(m) for m in self.measures], dtype=np.intp)
        self.pos_tab = np.zeros((len(self.measures), self.n_atoms.max()))
        self.mass_tab = np.zeros_like(self.pos_tab)
        for g, m in enumerate(self.measures):
            self.pos_tab[g, :len(m)] = np.asarray([a[0] for a in m], dtype=float)
            self.mass_tab[g, :len(m)] = np.asarray([a[1] for a in m], dtype=float)
        # a real atom at 0 shows as one nonzero position fewer than atoms
        if (np.count_nonzero(self.pos_tab) < self.n_atoms.sum() or np.any(self.mass_tab < 0)
                or not np.all(np.isfinite(self.pos_tab) & np.isfinite(self.mass_tab))):
            raise ValueError("tabulated atoms need finite nonzero positions and "
                             "finite nonnegative masses")
        # the distinct grid states in ascending order, each with its lowest index
        self._states, self._first = np.unique(self.y_grid, return_index=True)

    def _nearest(self, y):
        """The grid row ``np.argmin(np.abs(y_grid - y))`` gives every entry
        of 1-d ``y`` (the nearest state, the lowest index among equally near
        ones, row 0 for a non-finite entry), found by bisection of the
        sorted distinct states with the same computed distances."""
        s, first = self._states, self._first
        hi = np.minimum(np.searchsorted(s, y), len(s) - 1)
        lo = np.maximum(hi - 1, 0)
        d_lo, d_hi = np.abs(s[lo] - y), np.abs(s[hi] - y)
        d = np.minimum(d_lo, d_hi)
        # [a, b]: the run of sorted states at the least distance d
        a, b = np.where(d_lo == d, lo, hi), np.where(d_hi == d, hi, lo)
        idx = np.minimum(first[a], first[b])
        finite = np.isfinite(y)
        # rounding can leave states beyond the two neighbours at distance d
        for step, end in ((-1, a), (1, b)):
            rows = np.flatnonzero(finite)
            while rows.size:
                j = np.clip(end[rows] + step, 0, len(s) - 1)
                rows = rows[(j != end[rows]) & (np.abs(s[j] - y[rows]) == d[rows])]
                end[rows] += step
                idx[rows] = np.minimum(idx[rows], first[end[rows]])
        idx[~finite] = 0
        return idx

    def atoms(self, x) -> AtomRows:
        """The atoms of the grid state nearest to each state of ``x``."""
        x = np.asarray(x, dtype=float)
        g = self._nearest(x.ravel()).reshape(x.shape)
        return AtomRows(self.pos_tab[g], self.mass_tab[g], self.n_atoms[g])

    @property
    def support_radius(self):
        return float(np.max(np.abs(self.pos_tab), initial=0.0))


Kernel = Union[StableTailKernel, FiniteActivityKernel, TabulatedKernel]


def has_atoms(kernel: Optional[Kernel]) -> bool:
    """True for the kernels with finitely many atoms at every state, which
    ``kernel.atoms(x)`` lists: the ``AtomKernel`` family."""
    return isinstance(kernel, AtomKernel)


# ---------------------------------------------------------------------------
# moment / total-variation diagnostics
# ---------------------------------------------------------------------------

@dataclass
class TiltedKernelReport:
    y_grid: np.ndarray = field(repr=False)
    moments: np.ndarray = field(repr=False)
    m1: np.ndarray = field(repr=False)  # |x|^(1+alpha) mass inside the radius
    m2: np.ndarray = field(repr=False)  # plain mass outside the radius
    alpha: float = 0.0

    @property
    def sup(self):
        return float(np.max(self.moments))

    def rows(self):
        for i, y in enumerate(self.y_grid):
            yield (float(y), float(self.moments[i]), float(self.m1[i]),
                   float(self.m2[i]))


def moment_bound(kernel: Kernel, y_grid, radius=1.0) -> TiltedKernelReport:
    """Certify the tilted-mass hypothesis sup_y int (1 ^ |x|^(1+alpha)) Q(y, dx).

    Raises DivergentMoment when a mass is not finite (for a power tail:
    alpha <= gamma - 1).
    """
    alpha = kernel.alpha
    p = 1.0 + alpha
    y_grid = np.atleast_1d(np.asarray(y_grid, dtype=float))
    moments = (kernel.mass(y_grid, [(-1.0, 1.0)], p)
               + kernel.mass(y_grid, _beyond(1.0), 0.0))
    m1 = kernel.mass(y_grid, [(-radius, radius)], p)
    m2 = kernel.mass(y_grid, _beyond(radius), 0.0)
    if not np.all(np.isfinite(moments + m1 + m2)):
        raise DivergentMoment(f"the tilted mass is not finite (alpha={alpha})")
    return TiltedKernelReport(y_grid=y_grid, moments=moments, m1=m1, m2=m2,
                              alpha=alpha)


def geometric_partition(inner, outer, n_cells=128):
    """Symmetric cell edges, geometric towards 0, covering [-outer, outer]."""
    if not 0 < inner < outer:
        raise ValueError("need 0 < inner < outer")
    n_half = max((n_cells - 1) // 2, 8)
    pos = np.geomspace(inner, outer, n_half + 1)
    return np.concatenate([-pos[::-1], pos])


@dataclass
class TVModulusReport:
    values: np.ndarray = field(repr=False)  # one per adjacent pair of states

    @property
    def max(self):
        return float(np.max(self.values)) if len(self.values) else 0.0


def tv_continuity_modulus(kernel: Kernel, alpha, y_grid, x_partition) -> TVModulusReport:
    """Partition lower bound on the tilted total-variation distance.

    For each adjacent pair of states the cellwise absolute differences of
    the tilted masses are summed; this bounds the true distance from
    below, which is the useful direction for falsifying continuity.
    """
    edges = np.asarray(x_partition, dtype=float)
    if len(edges) < 65:
        raise ValueError("partition must have at least 64 cells")
    y_grid = np.asarray(y_grid, dtype=float)

    def tilted_mass(a, b):
        # the cell [a, b), tilted by |x|^(1+alpha) inside [-1, 1] and by 1 outside
        b = np.nextafter(b, -np.inf)
        return (kernel.mass(y_grid, [(max(a, -1.0), min(b, 1.0))], 1.0 + alpha)
                + kernel.mass(y_grid, [(a, min(b, -_open_above(1.0))),
                                       (max(a, _open_above(1.0)), b)], 0.0))

    vectors = np.stack([tilted_mass(a, b) for a, b in zip(edges[:-1], edges[1:])],
                       axis=-1)
    vals = [float(np.sum(np.abs(v1 - v0))) for v0, v1 in zip(vectors[:-1], vectors[1:])]
    return TVModulusReport(values=np.asarray(vals))


# ---------------------------------------------------------------------------
# pushforward, drift correction, nonlocal operator
# ---------------------------------------------------------------------------

def _guard_support(kernel: Kernel, transform: ScaleTransform, x):
    if transform.is_identity:
        return
    lo, hi = transform.domain
    sr = kernel.support_radius
    # the same slack as ScaleTransform's domain check: an image-grid end
    # node inverts to within rounding of the edge minus the support
    if np.any(sr > np.minimum(x - lo, hi - x) + 1e-12):
        raise RangeError(
            "kernel support exceeds the tabulated transform range around the state"
        )


def atom_jumps(kernel: AtomKernel, transform: ScaleTransform, x, y):
    """The atoms of the states ``x`` and their pushforward through the
    transform: ``(kernel.atoms(x), z)`` with ``z = h(x + w) - y`` for every
    atom ``w``, one row per state.  ``y`` is the image of ``x`` that the
    caller holds: ``h(x)``, or the simulated state that ``x`` inverts."""
    x = np.asarray(x, dtype=float)
    atoms = kernel.atoms(x)
    z = np.asarray(transform.forward(x[..., None] + atoms.pos)) - np.asarray(y)[..., None]
    return atoms, z


def pushforward_integral(kernel: Kernel, transform: ScaleTransform, x, y, g):
    """Integral of g against the transformed kernel at the image states y
    of the states x, one value per state.

    The transformed measure is the pushforward of Q at x through
    w -> h(x + w) - y (``atom_jumps``); the integral is a sum over the
    atoms of Q in the original jump variable.  A power tail needs the
    identity transform, under which the transformed equation is the
    original one, so it has no pushforward to sum: ``ValidationError``.
    """
    if not has_atoms(kernel):
        raise ValidationError(
            f"pushforward_integral sums atoms, not a {type(kernel).__name__}: a "
            f"power tail needs the identity transform, under which the "
            f"transformed equation is the original one")
    _guard_support(kernel, transform, x)
    atoms, z = atom_jumps(kernel, transform, x, y)
    return atoms.sum(atoms.mass * np.asarray(g(z)))


def drift_correction(kernel: Kernel, transform: ScaleTransform,
                     trunc: TruncationFunction, x, y):
    """Drift generated by transporting the truncation through the transform:
    the integral of trunc(h(x + w) - y) - h'(x) trunc(w) against the kernel
    at the states x with images y, one value per state.  Identically zero
    for the identity transform."""
    x = np.asarray(x, dtype=float)
    if transform.is_identity:
        return np.zeros(x.shape)
    _guard_support(kernel, transform, x)
    atoms, z = atom_jumps(kernel, transform, x, y)
    hp = np.asarray(transform.deriv(x))[..., None]
    return atoms.sum(atoms.mass * (np.asarray(trunc(z))
                                   - hp * np.asarray(trunc(atoms.pos))))


# ---------------------------------------------------------------------------
# vectorized panel quadrature for power-tail kernels
# ---------------------------------------------------------------------------

_PANEL_NODES = 24


def _stable_panel_sum(kernel: StableTailKernel, values_on_panel, start,
                      far_bound=None, slope=0.0, subpanel_budget=4096):
    """Sum of panel integrals of a kernel-weighted profile along one ray,
    outward from ``start``.

    ``values_on_panel(x_nodes)`` returns the profile at signed nodes
    (shape (m, p) for m states).  Panels are dyadic, each subdivided so
    that the profile's declared slope stays resolvable by the Gauss rule.

    A walk takes at most 64 panels.  It stops when the closed-form mass
    bound certifies the remainder, when three consecutive panels fall
    below _TOL/8, or when the next panel would exceed the resolution
    budget.  On termination the remainder is extrapolated as
    (kernel-weighted mean of the profile over the last resolved octave)
    times the exact remaining tail mass: exact for profiles that have
    settled to a constant, and the cancelled residue of an oscillatory
    profile averages out of the panel mean, so the extrapolation error is
    of the order of the resolved decay.
    """
    gx, gw = gauss_legendre(_PANEL_NODES)
    total = None
    quiet = 0
    a = start
    last_mean = None
    for k in range(64):
        lo, hi = a, 2.0 * a
        width = hi - lo
        m = 1
        if slope > 0:
            m = int(np.ceil(width * slope / 12.0))
            if m > subpanel_budget:
                break
        edges = np.linspace(lo, hi, m + 1)
        mids = 0.5 * (edges[1:] + edges[:-1])
        halves = 0.5 * np.diff(edges)
        r = (mids[:, None] + halves[:, None] * gx[None, :]).ravel()
        wq = (halves[:, None] * gw[None, :]).ravel() * kernel._dens(r)
        vals = values_on_panel(r)
        contrib = vals @ wq
        total = contrib if total is None else total + contrib
        peak = float(np.max(np.abs(contrib)))
        a = hi
        panel_mass = float(kernel.one_tail_mass(lo) - kernel.one_tail_mass(hi))
        last_mean = contrib / panel_mass
        remainder = ((far_bound if far_bound else 1.0)
                     * float(kernel.one_tail_mass(a)))
        if remainder < 0.5 * _TOL:
            return total
        quiet = quiet + 1 if peak < 0.125 * _TOL else 0
        if quiet >= 3:
            break
    if last_mean is None:  # the first panel already exceeds the budget
        raise QuadratureFailure("power-tail panel walk did not converge")
    return total + last_mean * float(kernel.one_tail_mass(a))


def _both_rays(kernel: StableTailKernel, values_at, start, **walk):
    """The outward panel sums of ``values_at(x_nodes)`` along the positive
    and the negative ray, added."""
    return sum(_stable_panel_sum(kernel, lambda r, s=s: values_at(s * r), start,
                                 **walk) for s in (1.0, -1.0))


_DIRECT_DEPTH = 10  # inward panels evaluated in direct form before the
# Taylor form takes over (float cancellation of f(y+x)-f(y) below R 2^-10)


def _stable_nonlocal(kernel: StableTailKernel, trunc: TruncationFunction, y,
                     fx, fpx, f_sup=None, subpanel_budget=4096):
    """Compensated nonlocal integral for a power-tail kernel, vector in y.

    The direct compensated difference on both rays, except below the
    cancellation depth R 2^-_DIRECT_DEPTH, where the Taylor-remainder form
    with an inner Gauss integral takes over.  Inside R the panels halve
    towards 0, one Gauss rule each; the Taylor walk stops after three
    consecutive panels below _TOL/8, or after 64 panels.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))[:, None]
    R = trunc.radius
    a_nodes, a_wts = gauss_legendre_01(_INNER_NODES)
    fy = np.asarray(fx(y))
    fpy = np.asarray(fpx(y))
    sup_est = f_sup if f_sup is not None else float(np.max(np.abs(fy))) + 1.0
    far_bound = 2.0 * sup_est + trunc.cap * float(np.max(np.abs(fpy)))
    probes = np.linspace(np.min(y) - 3.0, np.max(y) + 3.0, 41)
    slope = float(np.max(np.abs(fpx(probes)))) + 1e-12

    def direct(x_nodes):
        x = x_nodes[None, :]
        return (np.asarray(fx(y + x)) - fy
                - np.asarray(trunc(np.broadcast_to(x, (y.shape[0], len(x_nodes)))))
                * fpy)

    def taylor(x_nodes):
        x = x_nodes[None, :, None]
        shifted = y[:, :, None] + a_nodes[None, None, :] * x
        inner = ((np.asarray(fpx(shifted)) - fpy[:, :, None]) * a_wts).sum(axis=-1)
        return x_nodes[None, :] * inner

    gx, gw = gauss_legendre(_PANEL_NODES)

    def panel(values_at, a):
        """The Gauss rule on [a/2, a] of ``values_at`` against the kernel."""
        lo, hi = 0.5 * a, a
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        r = mid + half * gx
        return values_at(r) @ (half * gw * kernel._dens(r))

    near = None
    for sign in (+1.0, -1.0):
        a = R
        part = None
        for _ in range(_DIRECT_DEPTH):
            c = panel(lambda r: direct(sign * r), a)
            part = c if part is None else part + c
            a = 0.5 * a
        deep, quiet = None, 0  # a is now R 2^-_DIRECT_DEPTH
        for _ in range(64):
            c = panel(lambda r: taylor(sign * r), a)
            deep = c if deep is None else deep + c
            a = 0.5 * a
            quiet = quiet + 1 if float(np.max(np.abs(c))) < 0.125 * _TOL else 0
            if quiet >= 3:
                break
        part = part + deep
        near = part if near is None else near + part
    far = _both_rays(kernel, direct, R, far_bound=far_bound, slope=slope,
                     subpanel_budget=subpanel_budget)
    return near + far


def stable_threshold_expectation(kernel: StableTailKernel, x_states, g, threshold,
                                 g_bound, g_slope):
    """Vectorized int over {|w| > threshold} of g(x, w) against the kernel.

    ``g(x_col, w_row)`` must broadcast to shape (m, p); ``g_slope`` bounds
    its w-derivative (resolution control for oscillatory profiles, at most
    256 subpanels a panel).
    """
    x = np.atleast_1d(np.asarray(x_states, dtype=float))[:, None]
    return _both_rays(kernel, lambda w: np.asarray(g(x, w[None, :])), threshold,
                      far_bound=g_bound, slope=g_slope, subpanel_budget=256)


def jump_operator(f, f_prime, kernel: Kernel, trunc: TruncationFunction, y,
                  f_sup=None) -> float:
    """Nonlocal generator term at y.

    A power tail takes the panel walk of ``_stable_nonlocal``.  Atoms are
    summed in two parts: inside the truncation radius, the first-order
    Taylor remainder in integral form (inner integral by fixed Gauss
    quadrature), weighted so that only the tilted mass of the kernel
    enters; outside it, the plain compensated difference.
    """
    R = trunc.radius
    y = float(y)
    fy = float(np.asarray(f(np.asarray(y))))

    if isinstance(kernel, StableTailKernel):
        if kernel.alpha <= kernel.gamma - 1.0:
            raise DivergentMoment("alpha <= gamma - 1: nonlocal term diverges")
        return float(_stable_nonlocal(kernel, trunc, y, f, f_prime, f_sup=f_sup)[0])

    fpy = float(np.asarray(f_prime(np.asarray(y))))

    def far(x):
        x = np.asarray(x, dtype=float)
        return f(y + x) - fy - np.asarray(trunc(x)) * fpy

    a_nodes, a_wts = gauss_legendre_01(_INNER_NODES)

    def near(x):
        x = np.asarray(x, dtype=float)
        shifted = y + a_nodes[None, :] * x[..., None]
        inner = ((np.asarray(f_prime(shifted)) - fpy) * a_wts).sum(axis=-1)
        return x * inner.reshape(x.shape)

    f1 = kernel.integral(y, near, lo=-R, hi=R)
    f2 = kernel.integral(y, far, lo=_open_above(R), hi=np.inf)
    f2 += kernel.integral(y, far, lo=-np.inf, hi=-_open_above(R))
    return f1 + f2
