"""Monte Carlo engine for the transformed equation.

The transformed state is advanced by an explicit first-order step carrying drift
(including the truncation-compensator correction for jumps that are
simulated explicitly), the transformed diffusion, and big jumps produced
by thinning a dominating Poisson stream.  Jumps below the cutoff are
either dropped or replaced by a variance-matched Gaussian.  Paths map
back through the inverse transform.  Every path owns a counter-derived
random stream, so ensembles are reproducible path by path, and a run
simulated in blocks of paths, on however many forked workers
(``coefficients._walked``), equals one run over all paths bit for bit.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .coefficients import CubicTable, ScaleTransform, _walked, transformed_diffusion
from .errors import (DegenerateWeights, IntensityBoundViolated, RangeError,
                     ValidationError)
from .generator import _BLOCK, EquationX, PathFunctional
from .kernels import (Kernel, StableTailKernel, TruncationFunction, atom_jumps,
                      drift_correction, has_atoms)


def _zero(y):
    return np.zeros_like(np.asarray(y, dtype=float))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def _is_integer(value):
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


def is_finite_real(value):
    """True for a finite real number; a bool does not count as one."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and math.isfinite(value))


def check_seed(seed):
    """Raise ValidationError unless ``seed`` is a non-negative integer."""
    if not _is_integer(seed) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass
class SimConfig:
    horizon: float = 1.0
    n_steps: int = 256
    n_paths: int = 1000
    master_seed: int = 0
    small_jump_cutoff: float = 0.05
    small_jump_mode: str = "gaussian_match"  # or "drop"
    big_jump_intensity_bound: float = 1.0
    max_exclusion_fraction: float = 0.01

    def __post_init__(self):
        if not is_finite_real(self.horizon) or self.horizon <= 0:
            raise ValidationError(
                f"horizon must be a finite positive number, got {self.horizon!r}")
        self.horizon = float(self.horizon)
        for name in ("n_steps", "n_paths"):
            size = getattr(self, name)
            if not _is_integer(size) or size < 1:
                raise ValidationError(f"{name} must be a positive integer, got {size!r}")
        if not is_finite_real(self.small_jump_cutoff) or self.small_jump_cutoff <= 0:
            raise ValidationError(f"small_jump_cutoff must be a finite positive "
                                  f"number, got {self.small_jump_cutoff!r}")
        if self.small_jump_mode not in ("gaussian_match", "drop"):
            raise ValidationError(f"unknown small_jump_mode {self.small_jump_mode!r}")
        if (not is_finite_real(self.big_jump_intensity_bound)
                or self.big_jump_intensity_bound < 0):
            raise ValidationError(f"big_jump_intensity_bound must be a finite number "
                                  f">= 0, got {self.big_jump_intensity_bound!r}")
        if (not is_finite_real(self.max_exclusion_fraction)
                or not 0 <= self.max_exclusion_fraction <= 1):
            raise ValidationError(f"max_exclusion_fraction must lie in [0, 1], "
                                  f"got {self.max_exclusion_fraction!r}")
        check_seed(self.master_seed)


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

# numpy's SeedSequence (NEP 19, after O'Neill's seed_seq): a pool of four
# uint32 words, hashed and mixed with 32-bit integer arithmetic only
_M32 = 0xFFFFFFFF
_POOL = 4


def _hasher(const, mult):
    """SeedSequence's hashmix with its own running constant; works on ints
    and on uint32 arrays alike."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ (value >> 16)
    return hashmix


def _mix(x, y):
    r = ((0xCA01F9DD * x & _M32) - (0x4973F715 * y & _M32)) & _M32
    return r ^ (r >> 16)


def seed_words(master_seed, paths) -> np.ndarray:
    """Row ``r`` equals ``SeedSequence(entropy=master_seed,
    spawn_key=(paths[r],)).generate_state(4, np.uint64)``.

    ``paths`` is a 1-d integer array of path indices in [0, 2**32).  The
    master seed's words fill the pool, so the pool before the path word is
    shared and computed once; the path words and the output hash run on
    whole arrays of uint32.
    """
    check_seed(master_seed)
    paths = np.asarray(paths)
    if paths.ndim != 1 or paths.dtype.kind not in "iu":
        raise ValidationError("path indices must be a 1-d array of integers")
    if paths.size and (paths.min() < 0 or paths.max() > _M32):
        raise ValidationError("path indices must lie in [0, 2**32)")
    seed, run = int(master_seed), []
    while seed or not run:
        run.append(seed & _M32)
        seed >>= 32
    run += [0] * (_POOL - len(run))  # a spawned sequence pads to the pool size
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in run[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in run[_POOL:] + [paths.astype(np.uint32)]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out_hash = _hasher(0x8B51F9DD, 0x58F38DED)
    out = np.empty((len(paths), 2 * _POOL), dtype=np.uint32)
    for i in range(2 * _POOL):
        out[:, i] = out_hash(pool[i % _POOL])
    # word pairs read as little-endian uint64, as generate_state does
    return out.astype("<u4").view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """Seed words computed in advance, handed to PCG64 as its state."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("precomputed seed words serve PCG64 only")
        return self.words


def streams(master_seed, paths):
    """One PCG64 Generator per path index, as ``np.random.default_rng`` of
    the SeedSequence would give; the words are computed now for all paths,
    each Generator when it is reached."""
    return (np.random.Generator(np.random.PCG64(_Words(w)))
            for w in seed_words(master_seed, paths))


# ---------------------------------------------------------------------------
# jump measures of the transformed state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpOps:
    """What the engine needs of a jump measure once the cutoff is fixed.

    ``profiles(x, y)`` stacks the big-jump rate, the truncated compensator
    of the big jumps and the small-jump variance at the states ``y`` of Y,
    whose preimages ``x`` the caller holds, on a leading axis of length 3.
    ``sample(x_pre, y_pre, u1, u2)`` returns the sizes ``(z, w)`` of
    accepted big jumps in transformed and original coordinates from their
    pre-jump states in both coordinates and each candidate's two size
    uniforms, so a jump reads only its own path's stream.  ``small_jumps``
    is False when the small-jump variance is zero at every state by the
    kernel's structure.
    """

    profiles: Callable
    sample: Callable
    small_jumps: bool


def _constant_profiles(rate, kdelta, small_var):
    """State-independent profiles as a broadcast view: nothing is allocated
    per evaluation."""
    c = np.asarray([rate, kdelta, small_var], dtype=float)

    def profiles(x, y):
        shape = np.shape(y)
        return np.broadcast_to(c.reshape((3,) + (1,) * len(shape)), (3,) + shape)
    return profiles


def jump_ops(chars: CharacteristicsY, config: SimConfig) -> Optional[JumpOps]:
    """The engine's view of the jump measure of Y once the cutoff
    ``config.small_jump_cutoff`` is fixed: None without jumps, else the
    kernel of X in ``chars.measure`` pushed forward through
    ``chars.transform``, compensated under ``chars.trunc``.
    """
    k, transform, trunc = chars.measure, chars.transform, chars.trunc
    if k is None:
        return None
    delta = float(config.small_jump_cutoff)
    if isinstance(k, StableTailKernel):
        if not transform.is_identity:
            raise RangeError(
                "power-tail kernels need the identity transform: their support "
                "exceeds any finite transform table"
            )
        return JumpOps(*_stable_ops(k, delta))
    if has_atoms(k):
        return JumpOps(*_atom_kernel_ops(k, transform, delta, trunc))
    raise ValidationError(f"unsupported kernel type {type(k).__name__}")


def _stable_ops(kernel: StableTailKernel, delta):
    """Identity transform: everything is state independent, and a jump's
    size is the same array in both coordinates.  The rate and the
    small-jump variance are closed-form masses; the truncated compensator
    of the big jumps is 0, the integral of the odd clamp against the
    symmetric tail."""
    rate = 2.0 * float(kernel.one_tail_mass(delta))
    svar = float(kernel.mass(0.0, [(-delta, delta)], 2.0))

    def sample(x_pre, y_pre, u1, u2):
        z = kernel.sample_two_tail(np.asarray(u1), np.asarray(u2), -delta, delta)
        return z, z
    return _constant_profiles(rate, 0.0, svar), sample, svar != 0.0


def _atom_kernel_ops(kernel, transform, delta, trunc):
    """Kernels with finitely many atoms at every state (``kernel.atoms``)
    through a (possibly nontrivial) transform.

    A batch of states costs one ``atoms`` call and one transform call on
    the padded atoms of all states (``atom_jumps``; the profiles and the
    sampler are handed their states in both coordinates).  Sums over a
    state's atoms, or over its big atoms moved to the front of the row, add
    as a per-state ``np.sum`` over just those atoms would: the results equal
    a loop over the states bit for bit.  When the atoms sit at fixed
    positions and the big/small class of each is uniform over the working
    range, the profiles are smooth, so they are tabulated once and
    interpolated (``_TableOfY``, which reads y only), and when every atom
    is big at every node the third result says the table's small-jump
    variance is zero.  Size sampling is always exact.
    """
    def big_first(atoms, big):
        """Each row's atom order with its big atoms first, in place order,
        and the big masses in that order (0 after them)."""
        order = np.argsort(~big, axis=-1, kind="stable")
        return order, np.take_along_axis(atoms.mass * big, order, axis=-1)

    def exact(x, y):
        y = np.asarray(y, dtype=float)
        atoms, z = atom_jumps(kernel, transform, np.ravel(x), y.ravel())
        m, big = atoms.mass, np.abs(z) > delta
        _, mb = big_first(atoms, big)
        out = np.stack([atoms.sum(mb, big.sum(axis=-1)),
                        atoms.sum(np.asarray(trunc(z)) * m * big),
                        atoms.sum(z**2 * m * ~big)])
        return out.reshape((3,) + y.shape)

    profiles, small_jumps = exact, True
    if not transform.is_identity:
        ys = _shrunk_image_grid(transform, kernel.support_radius, 257)
        xs = transform.inverse(ys)
        atoms, z = atom_jumps(kernel, transform, xs, ys)
        big = np.abs(z) > delta
        if atoms.fixed and np.all(big == big[:1, :]):
            profiles = _TableOfY(CubicTable(ys, exact(xs, ys)))
            small_jumps = not np.all(big)

    def sample(x_pre, y_pre, u1, u2):
        x_pre, y_pre, u1 = (np.atleast_1d(np.asarray(a, dtype=float))
                            for a in (x_pre, y_pre, u1))
        atoms, z = atom_jumps(kernel, transform, x_pre, y_pre)
        big = np.abs(z) > delta
        n_big = big.sum(axis=-1)
        order, mb = big_first(atoms, big)
        cum = np.cumsum(mb, axis=-1) / atoms.sum(mb, n_big)[:, None]
        j = np.minimum(np.sum(cum < u1[:, None], axis=-1), n_big - 1)
        # the chosen big atom's place in its row
        r = np.arange(len(j))
        k = order[r, j]
        return z[r, k], atoms.pos[k] if atoms.fixed else atoms.pos[r, k]
    return profiles, sample, small_jumps


@dataclass(frozen=True)
class _TableOfY:
    """Profiles tabulated over Y: ``(x, y) -> table(y)``, x unread."""

    table: CubicTable

    def __call__(self, x, y):
        return self.table(y)


# ---------------------------------------------------------------------------
# characteristics of the transformed state
# ---------------------------------------------------------------------------

def _image_range(transform: ScaleTransform, support_radius):
    """The image of the domain shrunk by the kernel support at both ends."""
    dlo, dhi = transform.domain
    sr = float(support_radius)
    if not np.isfinite(sr) or 2.0 * sr >= dhi - dlo:
        raise RangeError("kernel support exceeds the tabulated transform range")
    return (float(np.asarray(transform.forward(np.asarray(dlo + sr)))),
            float(np.asarray(transform.forward(np.asarray(dhi - sr)))))


def _shrunk_image_grid(transform: ScaleTransform, support_radius, nodes):
    """Image grid kept clear of the domain edges by the kernel support."""
    return np.linspace(*_image_range(transform, support_radius), nodes)


@dataclass
class CharacteristicsY:
    """The transformed equation: drift, diffusion and jump measure of Y,
    and the drift functional of X.

    ``measure`` is None or a kernel of X, whose jumps reach Y pushed
    forward through ``transform``; ``trunc`` is the truncation under which
    the drift ``b`` and the jump compensator are taken.  ``functional`` is
    None or a bounded functional H of X, which adds sigma0(Y) * H to the
    drift of Y.
    """

    b: Callable
    sigma0: Callable
    measure: Optional[Kernel] = None
    transform: ScaleTransform = field(default_factory=ScaleTransform.identity)
    trunc: TruncationFunction = field(default_factory=TruncationFunction)
    functional: Optional[PathFunctional] = None


def build_characteristics(eq: EquationX) -> CharacteristicsY:
    """Characteristics of Y = h(X) induced by the transform, diffusion,
    kernel, truncation and drift functional of ``eq``.

    For a nontrivial transform the state profiles (drift correction and
    transformed diffusion) are tabulated on the image and interpolated by
    monotone cubics; the residual interpolation error sits far below the
    Monte Carlo resolution these evaluators feed.
    """
    transform, diffusion = eq.coeffs.transform, eq.coeffs.diffusion
    kernel, trunc = eq.kernel, eq.trunc

    if transform.is_identity:
        def sigma0(y):
            return np.asarray(transformed_diffusion(transform, diffusion, y))
    else:
        lo, hi = transform.image
        ys_full = np.linspace(lo, hi, max(257, 2 * len(transform.grid) - 1))
        sigma0 = CubicTable(ys_full, transformed_diffusion(transform, diffusion, ys_full))

    if kernel is None or transform.is_identity:
        b = _zero  # without jumps, or under the identity, no correction
    else:
        # a power tail fails here (RangeError): no finite table holds its
        # support
        ys = _shrunk_image_grid(transform, kernel.support_radius, 257)
        b = CubicTable(ys, drift_correction(kernel, transform, trunc,
                                            transform.inverse(ys), ys))
    return CharacteristicsY(b=b, sigma0=sigma0, measure=kernel, transform=transform,
                            trunc=trunc, functional=eq.functional)


# ---------------------------------------------------------------------------
# paths and ensembles
# ---------------------------------------------------------------------------

@dataclass
class Ensemble:
    """Structure-of-arrays ensemble; rows are paths, last axis is time.

    Y is simulated in the rows of ``x`` and inverted there in place (under
    the identity transform ``x`` is Y); h(x) and h'(x) are not stored but
    evaluated where they are read.  A run over all paths (``simulate_y``)
    writes its arrays in place into memory mapped shared with the children
    that later calls fork, and keeps the terminal X, ``x_end``, as its
    workers copied it (a range keeps a view of ``x``).  Every array of an
    ensemble that ``simulate_y`` returns is read-only (a whole run's once
    every worker is joined), so a write raises ``ValueError``.  A jump
    record holds its row, time, pre-jump state of X and size in the
    original coordinates.
    """

    times: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    x_end: np.ndarray = field(repr=False)
    dW: np.ndarray = field(repr=False)
    active: np.ndarray = field(repr=False)
    jump_path: np.ndarray = field(repr=False)
    jump_time: np.ndarray = field(repr=False)
    jump_x_pre: np.ndarray = field(repr=False)
    jump_w: np.ndarray = field(repr=False)
    config: SimConfig

    @property
    def n_paths(self):
        return self.x.shape[0]

    @property
    def excluded_count(self):
        return int(np.sum(~self.active))

    def jumps_of(self, i) -> slice:
        """The slice of row i's jump records, which are sorted by row, then
        time."""
        lo, hi = np.searchsorted(self.jump_path, (i, i + 1))
        return slice(int(lo), int(hi))

    def terminal_x(self):
        return self.x_end[self.active]


def _read_only(ens: Ensemble) -> Ensemble:
    """``ens``, its arrays made read-only."""
    for value in vars(ens).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return ens


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

# bytes a block of a run may hold privately (``_path_bytes``): each worker
# walks its share in blocks of as many paths as fit, and drops a block's
# private arrays, or reduces and drops its ensemble, before it draws the next
BLOCK_BYTES = 2**22

# floats a path holds privately per candidate jump (its four uniforms, keys,
# sort permutation, sorted copies and accepted records) and per path beyond
# its noise rows (the state of a step and the step's temporaries); measured
# with tracemalloc on the power tail's range and whole runs
_CANDIDATE_FLOATS = 12
_STEP_FLOATS = 24


def _candidate_capacity(mean_total):
    """Candidate slots reserved before the noise is drawn: the mean of the
    Poisson total plus six of its standard deviations, so the buffer almost
    never has to grow."""
    return int(mean_total + 6.0 * np.sqrt(mean_total)) + 16


@dataclass(frozen=True)
class EngineSetup:
    """One run of the engine: the characteristics, configuration and
    initial state, and what is built and validated from them once before
    any path is drawn, the jump measure's ops (None without jumps), the
    range ``(lo, hi)`` of Y whose leaving excludes a path (unbounded under
    the identity) and, with jumps, ``profiles(x, y)``: the drift
    ``chars.b`` and the three jump profiles at y = h(x), one table of four
    columns when both are tables on the same nodes."""

    ops: Optional[JumpOps]
    y_range: tuple
    profiles: Optional[Callable] = field(repr=False)
    chars: CharacteristicsY = field(repr=False)
    config: SimConfig = field(repr=False)
    y0: float


def engine_setup(chars: CharacteristicsY, config: SimConfig, y0: float) -> EngineSetup:
    """Validate the cutoff against the truncation radius, the initial state
    and the dominating intensity, and build the jump ops, once for all
    blocks of a run."""
    transform = chars.transform
    if config.small_jump_cutoff >= chars.trunc.radius:
        raise ValidationError("small_jump_cutoff must stay below the truncation radius")
    ops = jump_ops(chars, config)

    # effective exclusion bounds: evaluating the jump machinery at a state
    # requires the kernel support to stay inside the tabulated range
    img_lo, img_hi = transform.image
    if not transform.is_identity:
        radius = chars.measure.support_radius if chars.measure is not None else 0.0
        img_lo, img_hi = _image_range(transform, radius)
        if not img_lo < y0 < img_hi:
            raise RangeError("initial state outside the effective range")

    # start-up validation of the dominating intensity on a scan grid
    if ops is not None:
        if transform.is_identity:
            span = max(8.0 * abs(float(np.asarray(chars.sigma0(np.asarray(y0)))))
                       * np.sqrt(config.horizon), 1.0)
            scan = np.linspace(y0 - span, y0 + span, 65)
        else:
            scan = np.linspace(img_lo, img_hi, 129)
        sup_rate = float(np.max(ops.profiles(transform.inverse(scan), scan)[0]))
        lam_max = config.big_jump_intensity_bound
        if not sup_rate <= lam_max * (1.0 + 1e-9):  # a NaN rate fails too
            raise IntensityBoundViolated(f"dominating intensity {lam_max} does not bound "
                                         f"the scanned supremum rate {sup_rate:.6g}")
    return EngineSetup(ops, (img_lo, img_hi), None if ops is None
                       else _with_drift(chars.b, ops.profiles), chars, config, float(y0))


def _with_drift(b, profiles):
    """(x, y) -> (b(y), *profiles(x, y)): one four-column table of y when
    ``b`` and ``profiles`` are tables on the same nodes, with their values
    bit for bit."""
    if (isinstance(b, CubicTable) and isinstance(profiles, _TableOfY)
            and np.array_equal(b.x, profiles.table.x)):
        return _TableOfY(b.stacked(profiles.table))

    def both(x, y):
        return (b(y), *profiles(x, y))
    return both


def _check_exclusions(n_excluded, config: SimConfig):
    """Raise RangeError when more than ``max_exclusion_fraction`` of all
    the run's paths left the effective range."""
    frac = n_excluded / config.n_paths
    if frac > config.max_exclusion_fraction:
        raise RangeError(
            f"{frac:.2%} of paths left the tabulated range "
            f"(limit {config.max_exclusion_fraction:.2%}); widen the grid"
        )


def _candidate_order(c_step, c_path, c_t, n_paths):
    """Permutation of the candidates into (step, path, time) order, ties in
    input order; c_path < n_paths, so (step, path) is one integer key."""
    return np.lexsort((c_t, c_step * n_paths + c_path))


def _record_order(jp):
    """Permutation of the accepted records, which come in (step, path,
    time) order, into (path, time) order, ties in input order: a path's
    step never decreases as its time grows, so a stable sort by path
    keeps its records in time order."""
    return np.argsort(jp, kind="stable")


def simulate_y(setup: EngineSetup, *, paths: Optional[range] = None) -> Ensemble:
    """Simulate the transformed state of ``setup``; see the module docstring.

    The drift functional ``setup.chars.functional``, when there is one, is
    that of X: each step hands it the column X = h^{-1}(Y) of the current
    states, and it adds sigma0(Y) * H to the drift of Y.

    ``paths`` is a range of path indices, all ``config.n_paths`` by
    default.  Path i draws only from the streams keyed by
    ``(master_seed, i)``, so the rows of a range equal the same rows of a
    run over all paths, bit for bit; ``jump_path`` counts rows from
    ``paths.start``.  A range is simulated here, in this process, with no
    ``max_exclusion_fraction`` check: that check covers a whole run, so
    the caller of ranges counts their exclusions, as ``simulate_blocks``
    does.

    A run over all paths (``paths`` None) goes through ``_blocks``, whose
    blocks write all their rows in place into arrays mapped shared before
    the fork, so it equals the one-process run.
    """
    config = setup.config
    if paths is not None:
        if not (isinstance(paths, range) and paths.step == 1
                and 0 <= paths.start < paths.stop <= config.n_paths):
            raise ValidationError(f"paths must be a nonempty range within "
                                  f"range({config.n_paths}), got {paths!r}")
        return _read_only(_engine(setup, paths))
    P, n = config.n_paths, config.n_steps
    run = {"x": _shared((P, n + 1)), "dW": _shared((P, n)), "active": _shared((P,), bool)}

    def block(paths):
        part = _engine(setup, paths, run)
        return ((part.x_end.copy(), part.jump_path + paths.start, part.jump_time,
                 part.jump_x_pre, part.jump_w), part.excluded_count)

    xe, jp, jt, jx, jw = (np.concatenate(r) for r in zip(*_blocks(setup, block, True)))
    return _read_only(Ensemble(
        times=np.linspace(0.0, config.horizon, n + 1), x=run["x"], x_end=xe,
        dW=run["dW"], active=run["active"],
        jump_path=jp, jump_time=jt, jump_x_pre=jx, jump_w=jw,
        config=config))


def _shared(shape, dtype=float):
    """A zeroed array in anonymous memory mapped shared, so that children
    forked after it and this process see each other's writes."""
    import mmap
    count = math.prod(shape)
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, count * dtype.itemsize), dtype, count).reshape(shape)


def _gauss_small_jumps(setup: EngineSetup) -> bool:
    """True when the run draws small-jump normals that some step reads."""
    ops = setup.ops
    return (ops is not None and ops.small_jumps
            and setup.config.small_jump_mode == "gaussian_match")


def _path_bytes(setup: EngineSetup, shared: bool) -> int:
    """Bytes one path of ``setup`` holds privately in its block: its rows
    of X and dW unless the run maps them ``shared``, its small-jump normals
    under gaussian_match, its share of the lam_max T candidates and the step
    temporaries."""
    config = setup.config
    n = config.n_steps
    floats = (_STEP_FLOATS + _CANDIDATE_FLOATS * config.big_jump_intensity_bound
              * config.horizon + (0 if shared else 2 * n + 1)
              + (n if _gauss_small_jumps(setup) else 0))
    return math.ceil(8 * floats)


def _blocks(setup: EngineSetup, task: Callable, shared: bool) -> list:
    """``result`` of ``task(paths) = (result, excluded count)`` for every
    block of the run, in path order (``_walked``), after the
    ``max_exclusion_fraction`` check of all blocks' exclusions.  A block
    holds as many paths as fit in ``BLOCK_BYTES`` at ``_path_bytes(setup,
    shared)`` each."""
    config = setup.config
    block = max(1, BLOCK_BYTES // _path_bytes(setup, shared))
    done = _walked(task, config.n_paths, config.n_steps + 1, block)
    _check_exclusions(sum(n for _, n in done), config)
    return [r for r, _ in done]


def _engine(setup: EngineSetup, paths: range, run: Optional[dict] = None) -> Ensemble:
    """The engine of ``simulate_y`` over the range ``paths``, without the
    exclusion check.  With ``run``, a dict of arrays over all the run's
    paths, the rows ``paths`` of its X, dW and active flags are written in
    place."""
    chars, config, y0 = setup.chars, setup.config, setup.y0
    transform, functional, ops = chars.transform, chars.functional, setup.ops
    has_jumps = ops is not None
    img_lo, img_hi = setup.y_range

    n, P = config.n_steps, len(paths)
    rows = slice(paths.start, paths.stop)
    T = config.horizon
    dt = T / n
    sq_dt = np.sqrt(dt)
    times = np.linspace(0.0, T, n + 1)
    lam_max = config.big_jump_intensity_bound
    use_gauss = _gauss_small_jumps(setup)

    # per-path noise, drawn in place in a fixed order from the path's own
    # stream: n normals, n small-jump normals, the candidate count k, then
    # one block of 4k uniforms holding k candidate times (scaled by T), k
    # acceptance uniforms, k size uniforms u1 and k size uniforms u2.
    # Small-jump normals nobody reads (under "drop", or when the small-jump
    # variance is zero everywhere) all go to one reused row, which keeps
    # the later draws in place.
    normals = np.empty((P, n)) if run is None else run["dW"][rows]
    small_normals = np.empty((P if use_gauss else 1, n))
    counts = np.zeros(P, dtype=np.int64)
    unif = np.empty(4 * _candidate_capacity(P * lam_max * T))
    total = 0
    for i, rng in enumerate(streams(config.master_seed,
                                    np.arange(paths.start, paths.stop))):
        rng.standard_normal(out=normals[i])
        rng.standard_normal(out=small_normals[i if use_gauss else 0])
        k = int(rng.poisson(lam_max * T)) if lam_max > 0 else 0
        if k:
            end = 4 * (total + k)
            if end > len(unif):
                grown = np.empty(max(2 * len(unif), end))
                grown[:4 * total] = unif[:4 * total]
                unif = grown
            rng.random(out=unif[4 * total:end])
            counts[i] = k
            total += k

    # candidates, processed in (step, path, time) order; candidate j of
    # path p reads its time, acceptance, u1 and u2 uniforms at
    # 4 * first[p] + j + m * counts[p] for m = 0, 1, 2, 3
    c_path = np.repeat(np.arange(P), counts)
    first = np.cumsum(counts) - counts
    c_at = 3 * first[c_path] + np.arange(total)  # j = arange(total) - first[p]
    c_t = T * unif[c_at]
    c_step = np.minimum((c_t / dt).astype(np.int64), n - 1)
    order = _candidate_order(c_step, c_path, c_t, P)
    c_path, c_t, c_step = c_path[order], c_t[order], c_step[order]
    c_at, c_count = c_at[order], counts[c_path]
    c_u, c_u1, c_u2 = (unif[c_at + m * c_count] for m in (1, 2, 3))
    del unif, first, order, c_at, c_count
    bounds = np.searchsorted(c_step, np.arange(n + 1))

    # Y is simulated in the rows of X.  When a step reads X (a drift
    # functional, or the jump sampler under a transform), each column of Y
    # is inverted once, as its step finishes, into its column of X;
    # otherwise the rows of X hold Y until the row blocks below invert them
    X = np.empty((P, n + 1)) if run is None else run["x"][rows]
    by_column = not transform.is_identity and (functional is not None or has_jumps)
    y = np.full(P, y0)
    X[:, 0] = transform.inverse(y) if by_column else y
    active = np.empty(P, dtype=bool) if run is None else run["active"][rows]
    active.fill(True)
    carry, hv = None, 0.0

    # accepted marks: indices into the sorted candidates plus their sizes
    # in the original coordinates
    acc_idx, acc_w = [], []
    for s in range(n):
        x = X[:, s]  # Y under the identity; no step reads it in the row-block case
        if functional is not None:
            carry, hv = functional.step(carry, x)
        s0 = np.asarray(chars.sigma0(y))
        if has_jumps:
            b, big_rate, kdelta, small_var = setup.profiles(x, y)
            drift = np.asarray(b) + s0 * hv - kdelta
            del b  # b(y) would outlive the step
        else:
            drift = np.asarray(chars.b(y)) + s0 * hv
        jump_add = np.zeros(P)
        lo, hi = bounds[s], bounds[s + 1]
        if has_jumps and hi > lo:
            p_idx = c_path[lo:hi]
            ratio = big_rate[p_idx] / lam_max
            if np.any(ratio > 1.0 + 1e-12):
                raise IntensityBoundViolated(
                    f"acceptance probability {float(np.max(ratio)):.6g} > 1 "
                    f"at step {s}"
                )
            acc = (c_u[lo:hi] < ratio) & active[p_idx]
            if np.any(acc):
                sel = lo + np.flatnonzero(acc)
                pa = c_path[sel]
                z, w = ops.sample(x[pa], y[pa], c_u1[sel], c_u2[sel])
                np.add.at(jump_add, pa, z)
                acc_idx.append(sel)
                acc_w.append(np.asarray(w, dtype=float))
        incr = drift * dt + s0 * sq_dt * normals[:, s]
        if use_gauss:
            incr = incr + np.sqrt(np.maximum(small_var, 0.0) * dt) * small_normals[:, s]
        y_next = y + incr + jump_add
        if not transform.is_identity:
            out = (y_next < img_lo) | (y_next > img_hi)
            newly = out & active
            if np.any(newly):
                active &= ~newly
            y_next = np.where(active, y_next, y)
        X[:, s + 1] = transform.inverse(y_next) if by_column else y_next
        y = y_next
    del small_normals, c_u, c_u1, c_u2

    if not (transform.is_identity or by_column):  # row blocks of about _BLOCK values
        step = max(1, _BLOCK // (n + 1))
        for r in (slice(a, a + step) for a in range(0, P, step)):
            X[r] = transform.inverse(X[r])
    if acc_idx:
        sel = np.concatenate(acc_idx)
        order = _record_order(c_path[sel])
        jp, jt, js = (a[sel][order] for a in (c_path, c_t, c_step))
        jw = np.concatenate(acc_w)[order]
        jx = X[jp, js]  # the state before a jump is at its row and step
    else:
        jp = np.empty(0, dtype=int)
        jt, jw, jx = (np.empty(0) for _ in range(3))

    normals *= sq_dt  # the recorded Brownian increments
    return Ensemble(times=times, x=X, x_end=X[:, -1], dW=normals, active=active,
                    jump_path=jp, jump_time=jt, jump_x_pre=jx, jump_w=jw,
                    config=config)


def simulate_blocks(setup: EngineSetup, reduce: Callable) -> list:
    """``reduce(ensemble, paths)`` of every block ``paths`` of consecutive
    paths of the run ``setup``, in path order.

    Each block goes through ``simulate_y`` and is dropped once reduced, so
    a worker holds one block, of as many paths as fit in ``BLOCK_BYTES``,
    plus whatever ``reduce`` keeps.  The blocks run on the forked workers
    of ``_blocks``, so ``reduce`` may run in a child: a write survives only
    into memory mapped shared before the fork (``_shared``), which is where
    a per-path result goes, at the block's rows ``paths``; what ``reduce``
    returns comes back pickled, so it should be small, and must not keep a
    view (a view holds its whole block).  The exception of the first block
    that raises, in path order, is raised here, as is one that pickling a
    child's result raised.  Every child is joined before this returns or
    raises.  The result does not depend on the number of workers.
    """
    def block(paths):
        ens = simulate_y(setup, paths=paths)
        return reduce(ens, paths), ens.excluded_count
    return _blocks(setup, block, False)


def simulate_x_markovian(eq: EquationX, config: SimConfig, x0: float) -> Ensemble:
    """Simulate the Markovian part of ``eq`` through its transformed
    characteristics: ``eq.functional`` is not simulated, and the
    diagnostics realise the full law through its Girsanov weight."""
    chars = build_characteristics(replace(eq, functional=None))
    y0 = float(np.asarray(eq.coeffs.transform.forward(np.asarray(x0))))
    return simulate_y(engine_setup(chars, config, y0))


# ---------------------------------------------------------------------------
# reweighting
# ---------------------------------------------------------------------------

@dataclass
class WeightedEstimate:
    value: float
    se: float
    ess: float


def weighted_expectation(weights, values) -> WeightedEstimate:
    """Weighted Monte Carlo mean of per-path values with its standard error."""
    w = np.asarray(weights, dtype=float)
    gv = np.asarray(values, dtype=float)
    if w.shape != gv.shape:
        raise ValidationError("weights and functional values are misaligned")
    ess = float(np.sum(w) ** 2 / np.sum(w**2))
    if ess < 10.0:
        raise DegenerateWeights(f"effective sample size {ess:.2f} < 10")
    prod = w * gv
    n = len(prod)
    value = float(np.mean(prod))
    se = float(np.std(prod, ddof=1) / np.sqrt(n))
    return WeightedEstimate(value=value, se=se, ess=ess)


# ---------------------------------------------------------------------------
# compensator diagnostic
# ---------------------------------------------------------------------------

@dataclass
class ResidualStats:
    mean: float
    se: float
    per_path: np.ndarray = field(repr=False)

    @property
    def zscore(self):
        """mean / se; NaN when the standard error is not positive."""
        return self.mean / self.se if self.se > 0 else float("nan")


def compensator_residual(ensemble: Ensemble, region, kernel: Kernel) -> ResidualStats:
    """Per-path N_T(A) minus the time integral of the kernel mass of A.

    ``region`` is a list of (lo, hi) intervals in original jump
    coordinates at positive distance from 0; the distance must exceed the
    image of the simulation cutoff so that every jump into A was
    simulated explicitly.
    """
    intervals = [(float(lo), float(hi)) for lo, hi in region]
    for lo, hi in intervals:
        if lo <= 0.0 <= hi:
            raise ValidationError("the region must stay away from 0")
    P = ensemble.n_paths
    counts = np.zeros(P)
    if len(ensemble.jump_path):
        inside = np.zeros(len(ensemble.jump_path), dtype=bool)
        for lo, hi in intervals:
            inside |= (ensemble.jump_w >= lo) & (ensemble.jump_w <= hi)
        np.add.at(counts, ensemble.jump_path[inside], 1.0)
    dt = float(ensemble.times[1] - ensemble.times[0])
    rows = max(1, _BLOCK // (len(ensemble.times) - 1))  # blocks of ~_BLOCK states
    integral = np.concatenate([
        np.asarray(kernel.mass(ensemble.x[a:a + rows, :-1], intervals, 0.0)).sum(-1)
        for a in range(0, P, rows)]) * dt
    res = (counts - integral)[ensemble.active]
    return ResidualStats(mean=float(np.mean(res)),
                         se=float(np.std(res, ddof=1) / np.sqrt(len(res))),
                         per_path=res)
