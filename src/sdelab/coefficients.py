"""Construction of the scale transform for SDEs with irregular drift.

The drift enters only through a continuous antiderivative ``beta``; the
actual drift may be a genuine distribution.  Everything is built from the
mollified drift potential

    Sigma_w(x) = 2 * int_0^x (beta * rho'_w)(y) / (sigma * rho_w)(y)^2 dy,

evaluated at two decreasing widths ``w``.  The derivative always lands on
the mollifier, never on ``beta``.  The finer table defines the strictly
increasing scale transform ``h`` with ``h' = exp(-Sigma)``, and
generator evaluations are conjugated through ``h`` so that the merely
Hoelder-continuous potential is never differentiated.
"""
from __future__ import annotations

import copy
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._quad import gauss_kronrod, gauss_legendre
from .errors import NonConvergent, QuadratureFailure, RangeError

_MOLL_NODES = 48
_SEG_NODES = 8
_CHUNK = 2**14  # values per gather or convolution block: temporaries stay in cache
_NEWTON_ITERS, _BISECT_ITERS = 3, 30  # steps of ScaleTransform.inverse


def _power_sum(c, s):
    """c[3] + c[2] s + c[1] s^2 + c[0] (s^2 s), added in the order of
    scipy's PPoly evaluation so that the result agrees to the last bit."""
    s2 = s * s
    v = c[2] * s
    v += c[3]
    v += c[1] * s2
    s2 *= s
    v += c[0] * s2
    return v


def _pchip_edge(h0, h1, m0, m1):
    """One-sided three-point end derivative (Moler 2004): 0 where its sign
    differs from the end slope m0, 3 m0 where the slopes change sign and it
    exceeds 3 |m0|."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    mask = np.sign(d) != np.sign(m0)
    mmm = ~mask & (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3. * np.abs(m0))
    return np.where(mask, 0., np.where(mmm, 3. * m0, d))


def _pchip_coefficients(x, y):
    """PCHIP coefficients of the (nodes, columns) table ``y``, laid out as
    (power, column, cell), highest power first."""
    hk = (x[1:] - x[:-1])[:, None]
    mk = (y[1:] - y[:-1]) / hk
    if len(x) == 2:
        dk = np.concatenate([mk, mk])
    else:
        # weighted harmonic mean of the two slopes, 0 where they differ in
        # sign or one vanishes
        smk = np.sign(mk)
        condition = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
        w1 = 2 * hk[1:] + hk[:-1]
        w2 = hk[1:] + 2 * hk[:-1]
        whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
        dk = np.concatenate([_pchip_edge(hk[0], hk[1], mk[0], mk[1])[None],
                             np.where(condition, 0.0, 1.0 / whmean),
                             _pchip_edge(hk[-1], hk[-2], mk[-1], mk[-2])[None]])
    if not np.all(np.isfinite(dk)):
        raise ValueError("the node derivatives are not finite (the slopes overflow)")
    # the Hermite cubic of each cell, as in scipy's CubicHermiteSpline
    t = (dk[:-1] + dk[1:] - 2 * mk) / hk
    c = np.stack([t / hk, (mk - dk[:-1]) / hk - t, dk[:-1], y[:-1]])
    c[3] += 0.0  # PPoly's sum starts at +0.0, which maps -0.0 to +0.0
    return np.ascontiguousarray(c.transpose(0, 2, 1))


class CubicTable:
    """Monotone cubic interpolant of values tabulated along the last axis
    of ``y`` at the increasing nodes ``x`` (Fritsch & Carlson 1980).

    The node derivatives are Fritsch & Butland's (1984) weighted harmonic
    means of the neighbouring slopes, zero where the slopes change sign or
    vanish, with Moler's one-sided three-point rule at the ends and the
    chord on a 2-node table.  The derivatives, the Hermite coefficients and
    the input checks repeat scipy's ``PchipInterpolator`` operation for
    operation, and evaluation repeats scipy's ``PPoly`` arithmetic, so the
    values agree with scipy bit for bit.  A point p lies in the cell i with
    x[i] <= p < x[i+1]; the end cells extrapolate and the last node belongs
    to the last cell.  The cell is a direct index with an exact correction
    (``cell``), on uniform and non-uniform nodes alike.  Values have shape
    ``y.shape[:-1] + p.shape``.
    """

    def __init__(self, x, y):
        x = np.array(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1:
            raise ValueError("`x` must be 1-dimensional.")
        n = len(x)
        if n < 2:
            raise ValueError("`x` must contain at least 2 elements.")
        if y.ndim == 0 or y.shape[-1] != n:
            raise ValueError("The length of `y` along its last axis doesn't match "
                             "the length of `x`")
        if not np.all(np.isfinite(x)):
            raise ValueError("`x` must contain only finite values.")
        if not np.all(np.isfinite(y)):
            raise ValueError("`y` must contain only finite values.")
        if np.any(np.diff(x) <= 0):
            raise ValueError("`x` must be strictly increasing sequence.")
        # near-flat segments overflow the harmonic mean; those nodes get 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            self._c = _pchip_coefficients(x, y.reshape(-1, n).T)
        self.x = x
        self._lead = y.shape[:-1]
        # the cell of p counts the inner nodes <= p.  Uniform bins over the
        # nodes' span, (n - 1) 2^m of them with the least m <= 3 that puts
        # at most one inner node in a bin, else m = 3: the bin is a monotone
        # function of p, so the nodes of earlier bins lie below p and those
        # of later bins above it, and a branchless binary search over the
        # at most `most` nodes of p's bin finishes the count.  Past the
        # last node the search reads NaN, which never compares true.
        inner = x[1:-1]
        for m in range(4):
            self._last_bin = float(((n - 1) << m) - 1)
            self._per_bin = (self._last_bin + 1.0) / (x[-1] - x[0])
            b = self._bin(inner)
            most = int(np.bincount(b).max()) if len(b) else 0
            if most <= 1:
                break
        # stored as int32 (a table keeps up to 8 (n - 1) entries), read as intp
        self._first = np.searchsorted(b, np.arange(int(self._last_bin) + 1)).astype(np.int32)
        steps = [1 << k for k in reversed(range(most.bit_length()))]
        above = np.concatenate([inner, np.full(1 << most.bit_length(), np.nan)])
        self._search = [(s, above[s - 1:]) for s in steps]

    def _bin(self, p):
        """Bin index of every point of the 1-d float array ``p``."""
        t = p - self.x[0]
        t *= self._per_bin
        np.fmax(t, 0.0, out=t)  # also sends NaN to bin 0, so to cell 0
        np.fmin(t, self._last_bin, out=t)
        return t.astype(np.intp)

    def cell(self, p):
        """Cell index of every point of the 1-d float array ``p``: that of
        ``np.searchsorted(x[1:-1], p, side="right")`` for every point but
        NaN, which goes to cell 0."""
        i = self._first[self._bin(p)].astype(np.intp)
        for s, above in self._search:
            hit = p >= above[i]
            i += hit if s == 1 else s * hit
        return i

    def stacked(self, other):
        """The columns of this table, then those of ``other`` on the same
        nodes, as one table.  Columns do not mix, so its values are theirs
        bit for bit, from one cell search and one gather."""
        if not np.array_equal(self.x, other.x):
            raise ValueError("stacked tables need the same nodes")
        out = copy.copy(self)
        out._c = np.concatenate([self._c, other._c], axis=1)
        out._lead = (out._c.shape[1],)
        return out

    def coefficients(self, i):
        """Coefficients of the cells ``i``, shape (4, columns, len(i))."""
        return np.take(self._c, i, axis=2)

    def at(self, p, i):
        """Values at the 1-d points ``p`` in the cells ``i``, shape
        (columns, len(p))."""
        return _power_sum(self.coefficients(i), p - self.x[i])

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        flat = p.ravel()
        out = np.empty((self._c.shape[1], len(flat)))
        for a in range(0, len(flat), _CHUNK):
            seg = flat[a:a + _CHUNK]
            out[:, a:a + _CHUNK] = self.at(seg, self.cell(seg))
        return out.reshape(self._lead + p.shape)


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

@dataclass
class DriftSpec:
    """Drift given through its continuous antiderivative ``beta``, which is
    never differentiated (the drift may be a distribution).  ``beta`` may be
    called from several threads at once, which a pure numpy function allows."""

    beta: Callable[[np.ndarray], np.ndarray]

    def validate(self):
        for p in (-1.0, 0.0, 0.7):
            v = float(np.asarray(self.beta(np.asarray(p))))
            if not np.isfinite(v):
                raise ValueError(f"beta not finite at {p}")


@dataclass
class DiffusionSpec:
    """Diffusion coefficient inside its declared band.  ``sigma`` may be
    called from several threads at once, which a pure numpy function allows."""

    sigma: Callable[[np.ndarray], np.ndarray]
    sigma_min: float
    sigma_max: float

    def validate_on(self, grid):
        if not (np.all(np.isfinite((self.sigma_min, self.sigma_max)))
                and 0 < self.sigma_min <= self.sigma_max):
            raise ValueError("need finite 0 < sigma_min <= sigma_max")
        vals = np.asarray(self.sigma(np.asarray(grid, dtype=float)))
        if not np.all(np.isfinite(vals)):
            raise ValueError("sigma is not finite on the grid")
        if np.any(vals < self.sigma_min - 1e-12) or np.any(vals > self.sigma_max + 1e-12):
            raise ValueError("sigma leaves its declared [sigma_min, sigma_max] band")


@dataclass
class MollifierConfig:
    widths: tuple = (0.01, 0.005)
    quadrature_tol: float = 1e-8
    convergence_tol: float = 1e-4

    def __post_init__(self):
        w = tuple(float(v) for v in self.widths)
        # convergence compares the two widths; the finer defines the table
        if len(w) != 2 or not np.all(np.isfinite(w)) or min(w) <= 0:
            raise ValueError("widths must hold exactly two finite positive numbers")
        if w[1] >= w[0]:
            raise ValueError("widths must be strictly decreasing")
        tols = (self.quadrature_tol, self.convergence_tol)
        if not (np.all(np.isfinite(tols)) and min(tols) > 0):
            raise ValueError("tolerances must be finite and positive")
        self.widths = w


# ---------------------------------------------------------------------------
# mollifiers
# ---------------------------------------------------------------------------

def _mollifier_tables(width: float):
    """Positive-axis nodes with the even Gaussian rho and odd rho' values,
    cut at 8 widths.

    Convolutions are folded onto u > 0, which kills the catastrophic
    cancellation that a raw quadrature of f * rho' suffers from (rho'
    integrates to zero against constants only up to quadrature error).
    """
    x, w01 = gauss_legendre(_MOLL_NODES)
    half = 8.0 * width
    u = 0.5 * half * (x + 1.0)
    qw = 0.5 * half * w01
    rho = np.exp(-0.5 * (u / width) ** 2) / (width * np.sqrt(2.0 * np.pi))
    rho_p = -(u / width**2) * rho
    return u, qw, rho, rho_p


def _usable_cpus():
    """CPUs this process may run on (all CPUs where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pooled(task, jobs):
    """``list(map(task, jobs))`` on a pool of min(usable CPUs, jobs) threads;
    a task's exception is raised here."""
    with ThreadPoolExecutor(max(1, min(_usable_cpus(), len(jobs)))) as pool:
        return list(pool.map(task, jobs))


# grid values (paths x times) a forked share holds at least: below about
# this, a fork and the copy-on-write faults it leaves in the caller cost
# more than the share saves (measured end to end on registry scenarios)
_MIN_SHARE = 2**16


def _shares(n_paths, n_times) -> list:
    """max(1, min(usable CPUs, n_paths, grid values // ``_MIN_SHARE``))
    contiguous ranges that cover ``range(n_paths)``, of sizes within 1."""
    workers = max(1, min(_usable_cpus(), n_paths, n_paths * n_times // _MIN_SHARE))
    edges = [n_paths * k // workers for k in range(workers + 1)]
    return [range(a, b) for a, b in zip(edges, edges[1:])]


def _share_worker(task, share, conn):
    """A forked worker of ``_forked``: sends ``(True, task(share))``, or
    ``(False, exception)`` when the task or pickling its result raised."""
    with conn:
        try:
            reply = (True, task(share))
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send(reply)
        except Exception as exc:  # a result or an exception that does not pickle
            conn.send((False, exc))


def _forked(task, shares) -> list:
    """``[task(share) for share in shares]``, each on its own worker.

    The first share runs in this process, and each other in a child forked
    for the call, whose result comes back pickled through a pipe.  So
    ``task`` may run in a child: its result must pickle, and its writes
    are lost unless they go to memory mapped shared before the fork (the
    ensemble of an earlier run over all paths, mapped shared too, is
    read-only).  The exception of the first share that raises, in share
    order, is raised here, as is one that pickling a child's result
    raised; every child is joined before this returns or raises.  Where fork is not available, or
    while another Python thread runs, every share runs here, in order.
    """
    if len(shares) < 2:
        return [task(share) for share in shares]
    import multiprocessing
    if threading.active_count() != 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [task(share) for share in shares]
    context = multiprocessing.get_context("fork")
    conns, children = [], []
    try:
        for share in shares[1:]:
            recv, send = context.Pipe(duplex=False)
            conns.append(recv)
            with send:
                child = context.Process(target=_share_worker, args=(task, share, send))
                child.start()
            children.append(child)
        results = [task(shares[0])]
        for recv in conns:
            ok, value = recv.recv()
            if not ok:
                raise value
            results.append(value)
    except BaseException:
        for child in children:
            child.terminate()
        raise
    finally:
        for recv in conns:
            recv.close()
        for child in children:
            child.join()
            child.close()
    return results


def _walked(task, n_paths, n_times, block) -> list:
    """``task(paths)`` of every block of at most ``block`` paths, in path
    order: each of the ``_shares`` runs on a worker of ``_forked``, which
    walks it in blocks from its first path, so a failing block ends its
    share and the first failing block in path order is raised here."""
    def walk(share):
        return [task(range(a, min(a + block, share.stop)))
                for a in range(share.start, share.stop, block)]
    return [r for part in _forked(walk, _shares(n_paths, n_times)) for r in part]


def _folded(fn, x, width, odd):
    """(fn * rho'_w)(x) if ``odd``, else (fn * rho_w)(x), in blocks of at most
    ``_CHUNK`` point-node values along the leading axis of x, spread over the
    usable CPUs (numpy's ufuncs release the GIL).  Each block writes its own
    rows, and each row keeps its own stacked product with the node weights
    (one point per row for a 1-d x), so no value depends on the block size
    or the number of threads."""
    u, qw, rho, rho_p = _mollifier_tables(width)
    op, weight = (np.subtract, rho_p) if odd else (np.add, rho)
    x = np.asarray(x, dtype=float)
    pts = x.reshape(x.shape[0] if x.ndim else 1, int(np.prod(x.shape[1:])))
    out = np.empty(pts.shape)
    rows = max(1, _CHUNK // (max(1, pts.shape[1]) * len(u)))

    def block(a):
        X = pts[a:a + rows, :, None]
        out[a:a + rows] = (op(fn(X - u), fn(X + u)) * weight) @ qw

    _pooled(block, range(0, len(pts), rows))
    return out.reshape(x.shape)


def mollified_drift_derivative(beta, x, width):
    """(beta * rho'_w)(x) on an array of points."""
    return _folded(beta, x, width, odd=True)


def mollified_function(fn, x, width):
    """(fn * rho_w)(x) on an array of points."""
    return _folded(fn, x, width, odd=False)


# ---------------------------------------------------------------------------
# potential table
# ---------------------------------------------------------------------------

def _segment_points(grid, nodes):
    """The points ``nodes`` of [-1, 1] mapped into every cell of ``grid``,
    shape (cells, len(nodes)), and the cells' half-widths."""
    mid = 0.5 * (grid[1:] + grid[:-1])
    half = 0.5 * np.diff(grid)
    return mid[:, None] + half[:, None] * nodes[None, :], half


def _anchored_cumsum(seg, grid):
    """Cumulative sum of the cell integrals ``seg``, anchored at 0."""
    csum = np.concatenate([[0.0], np.cumsum(seg)])
    i0 = int(np.argmin(np.abs(grid)))
    return csum - csum[i0]


def _cumulative_table(integrand, grid):
    """Cumulative integral of ``integrand`` along ``grid``, anchored at 0."""
    gx, gw = gauss_legendre(_SEG_NODES)
    pts, half = _segment_points(grid, gx)
    return _anchored_cumsum((integrand(pts) * gw[None, :]).sum(axis=1) * half, grid)


def _holder_fit(grid, values):
    """Exponent/constant fit from the dyadic modulus of continuity."""
    n = len(grid)
    diffs = np.diff(grid)
    dx = float(diffs[0])
    uniform = np.allclose(diffs, dx, rtol=1e-9, atol=1e-12)
    lags, moduli = [], []
    lag = 1
    while lag <= max(1, n // 4):
        gap = np.max(np.abs(values[lag:] - values[:-lag]))
        scale = lag * dx if uniform else np.max(grid[lag:] - grid[:-lag]) / 1.0
        if gap > 0:
            lags.append(scale)
            moduli.append(gap)
        lag *= 2
    if len(moduli) < 2:
        return 1.0, 0.0
    ls, lm = np.log(np.asarray(lags)), np.log(np.asarray(moduli))
    slope, _ = np.polyfit(ls, lm, 1)
    alpha = float(np.clip(slope, 0.0, 1.0))
    # constant over all pairs at the fitted exponent; rows i meet all j >= i
    const = 0.0
    rows = max(1, _CHUNK // n)
    for a in range(0, n, rows):
        gap = np.abs(values[a:a + rows, None] - values[None, a:])
        sep = np.abs(grid[a:a + rows, None] - grid[None, a:])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(sep > 0, gap / sep**alpha, 0.0)
        const = max(const, float(np.max(ratio, initial=0.0)))
    return alpha, const


@dataclass
class DriftPotential:
    """Tabulated drift potential at the finer mollifier width."""

    grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    alpha: float = 1.0
    holder_const: float = 0.0
    converged: bool = True
    level_gap: float = 0.0

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        i0 = int(np.argmin(np.abs(self.grid)))
        if abs(self.grid[i0]) > 1e-12:
            raise ValueError("potential grid must contain 0")
        if abs(self.values[i0]) > 1e-12:
            raise ValueError("potential must vanish at 0")
        self._interp = CubicTable(self.grid, self.values)

    def __call__(self, x):
        return self._interp(x)

    @classmethod
    def zero(cls, grid):
        grid = np.asarray(grid, dtype=float)
        return cls(grid=grid, values=np.zeros_like(grid))


def compute_drift_potential(drift: DriftSpec, diffusion: DiffusionSpec,
                            moll: MollifierConfig, grid, strict=True) -> DriftPotential:
    """Tabulate the potential at the finer of the two mollifier widths.

    Both widths are computed, each by the 8-point Gauss rule on every grid
    cell.  Convergence is judged by the sup-grid gap between them; in
    strict mode a gap above ``convergence_tol`` raises NonConvergent (the
    construction is then not trustworthy for these coefficients).  The
    finer table is checked against its 17-point Gauss-Kronrod extension,
    which evaluates the integrand at the 9 Kronrod-only points of each
    cell: a sup gap |K17 - G8| above ``quadrature_tol`` raises
    QuadratureFailure.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 3 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be a sorted 1-d array with >= 3 nodes")
    if np.min(np.abs(grid)) > 1e-12:
        raise ValueError("grid must contain 0")
    diffusion.validate_on(grid)

    def integrand(pts, width):
        num = mollified_drift_derivative(drift.beta, pts, width)
        den = mollified_function(diffusion.sigma, pts, width)
        return 2.0 * num / den**2

    gx, gw = gauss_legendre(_SEG_NODES)
    pts, half = _segment_points(grid, gx)
    tables = []
    for width in moll.widths:
        vals = integrand(pts, width)
        tab = _anchored_cumsum((vals * gw[None, :]).sum(axis=1) * half, grid)
        if not np.all(np.isfinite(tab)):
            raise QuadratureFailure("potential table is not finite")
        tables.append(tab)
    # segment-quadrature self check at the finer width: the Kronrod
    # extension reuses the Gauss values and adds the Kronrod-only points
    kx, kw = gauss_kronrod(_SEG_NODES)
    extra = integrand(_segment_points(grid, kx[0::2])[0], moll.widths[-1])
    seg = (vals * kw[None, 1::2]).sum(axis=1) + (extra * kw[None, 0::2]).sum(axis=1)
    fine = _anchored_cumsum(seg * half, grid)
    disc = float(np.max(np.abs(fine - tables[-1])))
    if disc > max(moll.quadrature_tol, 1e-12 * (1.0 + np.max(np.abs(fine)))):
        raise QuadratureFailure(
            f"segment quadrature of the potential off by {disc:.2e}"
        )

    gap = float(np.max(np.abs(tables[-1] - tables[-2])))
    converged = gap < moll.convergence_tol
    if strict and not converged:
        raise NonConvergent(
            f"mollification levels differ by {gap:.3e} > {moll.convergence_tol:.1e}"
        )
    values = tables[-1]
    alpha, const = _holder_fit(grid, values)
    return DriftPotential(grid=grid, values=values, alpha=alpha, holder_const=const,
                          converged=converged, level_gap=gap)


# ---------------------------------------------------------------------------
# scale transform
# ---------------------------------------------------------------------------

@dataclass
class ScaleTransform:
    """Strictly increasing transform with derivative exp(-potential).

    The derivative table equals exp(-potential) at every node by
    construction; values are cumulative quadrature of the interpolated
    derivative.  All tables (h, h', the two as one two-column table, and
    the inverse's starting guess) are ``CubicTable``s.  Inversion brackets
    each point once in the value table and works on that cell's
    coefficients from then on.
    """

    grid: Optional[np.ndarray] = field(default=None, repr=False)
    h_values: Optional[np.ndarray] = field(default=None, repr=False)
    hprime_values: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.grid is None:
            self._h = self._hp = self._both = self._inv = None
            return
        self.grid = np.asarray(self.grid, dtype=float)
        self.h_values = np.asarray(self.h_values, dtype=float)
        self.hprime_values = np.asarray(self.hprime_values, dtype=float)
        if np.any(np.diff(self.h_values) <= 0):
            raise ValueError("transform values must be strictly increasing")
        self._h = CubicTable(self.grid, self.h_values)
        self._hp = CubicTable(self.grid, self.hprime_values)
        # h and h' in one table, which gives the values of _h and _hp bit
        # for bit
        self._both = self._h.stacked(self._hp)
        # monotone interpolant of the inverse: the Newton starting guess
        self._inv = CubicTable(self.h_values, self.grid)

    # -- identity ----------------------------------------------------------
    @classmethod
    def identity(cls):
        return cls(grid=None, h_values=None, hprime_values=None)

    @property
    def is_identity(self):
        return self.grid is None

    # -- ranges -------------------------------------------------------------
    @property
    def domain(self):
        if self.is_identity:
            return (-np.inf, np.inf)
        return float(self.grid[0]), float(self.grid[-1])

    @property
    def image(self):
        if self.is_identity:
            return (-np.inf, np.inf)
        return float(self.h_values[0]), float(self.h_values[-1])

    def _check_domain(self, x):
        lo, hi = self.domain
        if np.any(np.asarray(x) < lo - 1e-12) or np.any(np.asarray(x) > hi + 1e-12):
            raise RangeError(f"point outside tabulated domain [{lo}, {hi}]")

    def _check_image(self, y):
        lo, hi = self.image
        if np.any(np.asarray(y) < lo - 1e-12) or np.any(np.asarray(y) > hi + 1e-12):
            raise RangeError(f"point outside tabulated image [{lo}, {hi}]")

    # -- evaluation ----------------------------------------------------------
    def forward(self, x):
        if self.is_identity:
            return np.asarray(x, dtype=float)
        self._check_domain(x)
        return self._h(x)

    def deriv(self, x):
        if self.is_identity:
            return np.ones_like(np.asarray(x, dtype=float))
        self._check_domain(x)
        return self._hp(x)

    def forward_and_deriv(self, x):
        """``(h(x), h'(x))`` from the table that holds both, so one cell
        search and one gather serve both; equal bit for bit to
        ``(forward(x), deriv(x))``."""
        x = np.asarray(x, dtype=float)
        if self.is_identity:
            return x, np.ones_like(x)
        self._check_domain(x)
        return tuple(self._both(x))

    def inverse(self, y):
        """Monotone inversion inside the bracketing cell of the value table.

        The inverse table's direct cell index (``CubicTable.cell``) finds
        each point's bracketing cell; the interpolated starting guess,
        ``_NEWTON_ITERS`` Newton steps, the residual check and, for
        stragglers, ``_BISECT_ITERS`` bisection steps then all run on that
        cell's gathered coefficients.
        """
        if self.is_identity:
            return np.asarray(y, dtype=float)
        self._check_image(y)
        y = np.asarray(y, dtype=float)
        yq = y.ravel()
        out = np.empty(len(yq))
        for a in range(0, len(yq), _CHUNK):
            out[a:a + _CHUNK] = self._invert(yq[a:a + _CHUNK])
        return float(out[0]) if y.ndim == 0 else out.reshape(y.shape)

    def _invert(self, yq):
        """x for the 1-d points ``yq``."""
        # the inverse table's cell i, h[i] <= y < h[i+1], brackets x; at a
        # node value y = h[i] the start is grid[i], where Newton stops
        i = self._inv.cell(yq)
        lo, hi = self.grid[i], self.grid[i + 1]
        x = np.clip(self._inv.at(yq, i)[0], lo, hi)
        c = self._both.coefficients(i)

        def values(x, c, lo, hi, i, columns=2):
            """h (and h') at x from the cells i, [lo, hi], of coefficients
            c.  A cell's right end node belongs to the next cell: there the
            value is that cell's constant term (the last node stays in the
            last cell)."""
            v = _power_sum(c[:, :columns], x - lo)
            edge = ((x == hi) & (i < len(self.grid) - 2)).nonzero()[0]
            if len(edge):
                v[:, edge] = self._both._c[3][:columns, i[edge] + 1]
            return v

        for _ in range(_NEWTON_ITERS):
            hx, hpx = values(x, c, lo, hi, i)
            x = x - (hx - yq) / np.maximum(hpx, 1e-300)
            x = np.clip(x, lo, hi)
        res = np.abs(values(x, c, lo, hi, i, 1)[0] - yq)
        scale = 1e-10 * (1.0 + np.abs(yq))
        bad = (res > scale).nonzero()[0]
        if len(bad):
            cb, lob, hib, ib, yb = c[:, :, bad], lo[bad], hi[bad], i[bad], yq[bad]
            blo, bhi = lob, hib
            for _ in range(_BISECT_ITERS):
                mid = 0.5 * (blo + bhi)
                below = values(mid, cb, lob, hib, ib, 1)[0] < yb
                blo = np.where(below, mid, blo)
                bhi = np.where(below, bhi, mid)
            xb = 0.5 * (blo + bhi)
            hb, hpb = values(xb, cb, lob, hib, ib)
            xb = xb - (hb - yb) / np.maximum(hpb, 1e-300)
            x[bad] = np.clip(xb, blo, bhi)
        return x


def build_scale_transform(potential: DriftPotential) -> ScaleTransform:
    """Tabulate h = cumulative integral of exp(-potential) on the potential's
    grid, anchored at 0."""
    if not potential.converged:
        raise NonConvergent("potential did not converge; refusing to build transform")
    h_vals = _cumulative_table(lambda pts: np.exp(-potential(pts)), potential.grid)
    return ScaleTransform(grid=potential.grid, h_values=h_vals,
                          hprime_values=np.exp(-potential.values))


# ---------------------------------------------------------------------------
# conjugated test functions and generator pieces
# ---------------------------------------------------------------------------

@dataclass
class ConjugateTestFunction:
    """Bounded C^2 profile phi; the working test function is phi o h."""

    phi: Callable
    phi_prime: Callable
    phi_second: Callable
    bound: float
    name: str = "phi"

    def f_prime(self, transform: ScaleTransform, x):
        return self.phi_prime(transform.forward(x)) * transform.deriv(x)

    def as_x_callables(self, transform: ScaleTransform):
        """(f, f') as plain functions of the original variable."""
        return (lambda u: self.phi(transform.forward(u)),
                lambda u: self.phi_prime(transform.forward(u)) * transform.deriv(u))


def local_generator(f: ConjugateTestFunction, transform: ScaleTransform,
                    diffusion: DiffusionSpec, x):
    """Local generator value of f = phi o h at x.

    Evaluated through the conjugate as half * (sigma(x) h'(x))^2 *
    phi''(h(x)); the potential is never differentiated.
    """
    x = np.asarray(x, dtype=float)
    s0 = diffusion.sigma(x) * transform.deriv(x)
    return 0.5 * s0**2 * f.phi_second(transform.forward(x))


def transformed_diffusion(transform: ScaleTransform, diffusion: DiffusionSpec, y):
    """Diffusion coefficient of the transformed state: (sigma h') o h^{-1}."""
    x = transform.inverse(y)
    return diffusion.sigma(np.asarray(x)) * transform.deriv(x)


# ---------------------------------------------------------------------------
# hypothesis diagnostics
# ---------------------------------------------------------------------------

@dataclass
class PotentialHypothesisReport:
    sup_norm: float
    alpha: float
    holder_const: float
    converged: bool
    level_gap: float
    sup_saturating: bool
    divergence_levels: np.ndarray = field(repr=False)
    divergence_pos: np.ndarray = field(repr=False)
    divergence_neg: np.ndarray = field(repr=False)
    slope_lower: float = 0.0

    def to_dict(self):
        return {
            "sup_norm": self.sup_norm,
            "alpha": self.alpha,
            "holder_const": self.holder_const,
            "converged": bool(self.converged),
            "level_gap": self.level_gap,
            "sup_saturating": bool(self.sup_saturating),
            "divergence_levels": [float(v) for v in self.divergence_levels],
            "divergence_pos": [float(v) for v in self.divergence_pos],
            "divergence_neg": [float(v) for v in self.divergence_neg],
            "slope_lower": self.slope_lower,
        }


# the scale integrals' growth is read at _N_LEVELS geometric levels up to
# the table's half-width, capped at _TRUNCATION_RANGE
_TRUNCATION_RANGE = 1000.0
_N_LEVELS = 6


def check_hypotheses(potential: DriftPotential) -> PotentialHypothesisReport:
    """Growth/regularity diagnostics for the potential.

    Divergence of the scale integrals on half lines cannot be certified
    from a finite table; this reports the growth of int_0^M exp(-potential)
    at increasing M as evidence, nothing more.
    """
    grid, vals = potential.grid, potential.values
    sup = float(np.max(np.abs(vals)))
    half = (grid >= grid[0] / 2) & (grid <= grid[-1] / 2)
    half_sup = float(np.max(np.abs(vals[half]))) if np.any(half) else sup
    saturating = sup <= 1.2 * half_sup + 1e-12

    m_hi = min(_TRUNCATION_RANGE, float(min(-grid[0], grid[-1])))
    levels = np.geomspace(max(m_hi / 2**(_N_LEVELS - 1), 1e-3), m_hi, _N_LEVELS)
    pos, neg = [], []
    interp = potential._interp
    for m in levels:
        sub = np.linspace(0.0, m, 257)
        ev = np.exp(-interp(sub))
        pos.append(float(np.trapezoid(ev, sub)))
        sub = np.linspace(-m, 0.0, 257)
        ev = np.exp(-interp(sub))
        neg.append(float(np.trapezoid(ev, sub)))
    pos, neg = np.asarray(pos), np.asarray(neg)
    slope = float(np.min(np.concatenate([pos / levels, neg / levels])))
    return PotentialHypothesisReport(
        sup_norm=sup, alpha=potential.alpha, holder_const=potential.holder_const,
        converged=potential.converged, level_gap=potential.level_gap,
        sup_saturating=saturating,
        divergence_levels=levels, divergence_pos=pos, divergence_neg=neg,
        slope_lower=slope,
    )


# ---------------------------------------------------------------------------
# bundle
# ---------------------------------------------------------------------------

@dataclass
class CoefficientSet:
    """Drift/diffusion pair with the derived potential and transform."""

    drift: DriftSpec
    diffusion: DiffusionSpec
    potential: DriftPotential
    transform: ScaleTransform

    @classmethod
    def build(cls, drift, diffusion, mollifier, grid):
        drift.validate()
        pot = compute_drift_potential(drift, diffusion, mollifier, grid)
        return cls(drift=drift, diffusion=diffusion, potential=pot,
                   transform=build_scale_transform(pot))

    @classmethod
    def unit(cls):
        """sigma == 1, beta == 0 with the exact identity transform."""
        drift = DriftSpec(beta=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        diffusion = DiffusionSpec(sigma=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                                  sigma_min=1.0, sigma_max=1.0)
        return cls(drift=drift, diffusion=diffusion,
                   potential=DriftPotential.zero(np.linspace(-1, 1, 3)),
                   transform=ScaleTransform.identity())

    def table(self):
        """Columns (x, sigma_value, h, hprime) for export."""
        if self.transform.is_identity:
            g = self.potential.grid
            return np.column_stack([g, self.potential.values, g, np.ones_like(g)])
        g = self.transform.grid
        return np.column_stack([
            g, self.potential(g), self.transform.h_values, self.transform.hprime_values,
        ])
