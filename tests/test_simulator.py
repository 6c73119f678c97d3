"""Monte Carlo engine: determinism, law oracles, weights, residuals."""
import itertools
import math
import multiprocessing
import os
import pickle
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sdelab import (CharacteristicsY, DegenerateWeights, DiscreteLaw, EquationX,
                    FiniteActivityKernel, IntensityBoundViolated, RangeError, SimConfig,
                    compensator_residual,
                    constant_functional, engine_setup,
                    girsanov_weight, simulate_x_markovian, simulate_y, weighted_expectation,
                    clamped_running_sup, StableTailKernel, CoefficientSet,
                    PathFunctional, ScaleTransform, TruncationFunction,
                    build_characteristics, jump_ops)
from sdelab import coefficients, simulator

from approximants import canonical_decomposition_residual, domain_approximant
from reference import big_first_sample, simulated_y


def ones(y):
    return np.ones_like(np.asarray(y, dtype=float))


def zeros(y):
    return np.zeros_like(np.asarray(y, dtype=float))


def brownian_chars():
    return CharacteristicsY(b=zeros, sigma0=ones)


BROWNIAN_CFG = SimConfig(horizon=1.0, n_steps=128, n_paths=2000, master_seed=1,
                         big_jump_intensity_bound=0.0)


@pytest.fixture(scope="module")
def brownian_ens():
    return simulate_y(engine_setup(brownian_chars(), BROWNIAN_CFG, 0.0))


# ---------------------------------------------------------------------------
# determinism and reproducibility
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_single_path_bit_identical(self):
        cfg = SimConfig(horizon=1.0, n_steps=64, n_paths=1, master_seed=42,
                        big_jump_intensity_bound=0.0)
        a = simulate_y(engine_setup(brownian_chars(), cfg, 0.0))
        b = simulate_y(engine_setup(brownian_chars(), cfg, 0.0))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.dW, b.dW)

    def test_path_streams_independent_of_ensemble_size(self):
        cfg4 = SimConfig(horizon=1.0, n_steps=32, n_paths=4, master_seed=5,
                         big_jump_intensity_bound=0.0)
        cfg8 = replace(cfg4, n_paths=8)
        a = simulate_y(engine_setup(brownian_chars(), cfg4, 0.0))
        b = simulate_y(engine_setup(brownian_chars(), cfg8, 0.0))
        assert np.array_equal(a.x, b.x[:4])

    def test_jump_runs_reproducible(self, unit_atom_kernel):
        cfg = SimConfig(horizon=1.0, n_steps=64, n_paths=50, master_seed=3,
                        small_jump_cutoff=0.4, big_jump_intensity_bound=1.5)
        chars = CharacteristicsY(b=ones, sigma0=zeros, measure=unit_atom_kernel)
        a = simulate_y(engine_setup(chars, cfg, 0.0))
        b = simulate_y(engine_setup(chars, cfg, 0.0))
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.jump_time, b.jump_time)


# ---------------------------------------------------------------------------
# the per-path draw order
# ---------------------------------------------------------------------------

def _rebuilt_noise(seed, i, n, horizon, lam_max):
    """Path ``i``'s noise redrawn call by call in the documented order: n
    normals, n small-jump normals, the candidate count, then count uniforms
    each for times, acceptance, size u1 and size u2."""
    rng = next(simulator.streams(seed, [i]))
    normals = rng.standard_normal(n)
    rng.standard_normal(n)  # small-jump normals
    k = rng.poisson(lam_max * horizon) if lam_max > 0 else 0
    t = rng.uniform(0.0, horizon, size=k)
    u_acc, u1, u2 = (rng.uniform(size=k) for _ in range(3))
    return normals, t, u_acc, u1, u2


def _pre_jump_states(ens, y):
    """Y before each recorded jump of ``ens``: ``y[row, step]`` of its Y,
    with the step rebuilt from the jump time as the engine bins its
    candidates."""
    cfg = ens.config
    dt = cfg.horizon / cfg.n_steps
    step = np.minimum((ens.jump_time / dt).astype(np.int64), cfg.n_steps - 1)
    return y[ens.jump_path, step]


class TestDrawOrder:
    """Rebuild every path's stream independently and derive the accepted
    jumps from it; the engine must agree bit for bit."""

    def _check(self, ens, cfg, rate, sizes):
        """``sizes(i, j, u1, u2)`` gives the sizes w of candidates ``j`` of
        path i in the original coordinates."""
        dt = cfg.horizon / cfg.n_steps
        n_cand = n_acc = 0
        for i in range(cfg.n_paths):
            normals, t, u_acc, u1, u2 = _rebuilt_noise(
                cfg.master_seed, i, cfg.n_steps, cfg.horizon,
                cfg.big_jump_intensity_bound)
            n_cand += len(t)
            assert np.array_equal(ens.dW[i], normals * np.sqrt(dt))
            j = np.flatnonzero(u_acc < rate / cfg.big_jump_intensity_bound)
            j = j[np.argsort(t[j], kind="stable")]
            n_acc += len(j)
            sel = ens.jump_path == i
            assert np.array_equal(ens.jump_time[sel], t[j])
            assert np.array_equal(ens.jump_w[sel], sizes(i, j, u1[j], u2[j]))
        assert len(ens.jump_path) == n_acc
        assert np.all(np.diff(ens.jump_path) >= 0)
        return n_cand

    def _stable_case(self):
        kernel = StableTailKernel(gamma=1.5, scale=0.5, alpha=0.75)
        cfg = SimConfig(horizon=1.0, n_steps=32, n_paths=40, master_seed=23,
                        small_jump_cutoff=0.3, big_jump_intensity_bound=6.0)
        return kernel, cfg, CoefficientSet.unit(), TruncationFunction()

    def _stable_sizes(self, kernel, cutoff):
        return lambda i, j, u1, u2: kernel.sample_two_tail(u1, u2, -cutoff, cutoff)

    def test_stable_kernel(self):
        kernel, cfg, coeffs, trunc = self._stable_case()
        eq = EquationX(coeffs, kernel, trunc)
        ens = simulate_x_markovian(eq, cfg, 0.0)
        rate = 2.0 * float(kernel.one_tail_mass(cfg.small_jump_cutoff))
        sizes = self._stable_sizes(kernel, cfg.small_jump_cutoff)
        n_cand = self._check(ens, cfg, rate, sizes)
        assert n_cand > 150 and len(ens.jump_time) > 100
        # under the identity a power tail's jump has one size in both
        # coordinates
        u1, u2 = np.random.default_rng(23).random((2, len(ens.jump_time)))
        y_pre = _pre_jump_states(ens, ens.x)
        z, w = jump_ops(build_characteristics(eq), cfg).sample(y_pre, y_pre, u1, u2)
        assert np.array_equal(w, sizes(None, None, u1, u2)) and np.array_equal(z, w)

    def test_buffer_growth_keeps_the_streams(self, monkeypatch):
        kernel, cfg, coeffs, trunc = self._stable_case()
        ref = simulate_x_markovian(EquationX(coeffs, kernel, trunc), cfg, 0.0)
        monkeypatch.setattr(simulator, "_candidate_capacity", lambda mean: 1)
        ens = simulate_x_markovian(EquationX(coeffs, kernel, trunc), cfg, 0.0)
        for f in ("x", "dW", "jump_path", "jump_time", "jump_x_pre", "jump_w"):
            assert np.array_equal(getattr(ens, f), getattr(ref, f))
        rate = 2.0 * float(kernel.one_tail_mass(cfg.small_jump_cutoff))
        self._check(ens, cfg, rate, self._stable_sizes(kernel, cfg.small_jump_cutoff))

    def test_atom_measure(self):
        atoms = ((1.0, 0.7), (-0.5, 0.6))
        cfg = SimConfig(horizon=1.0, n_steps=16, n_paths=40, master_seed=8,
                        small_jump_cutoff=0.4, big_jump_intensity_bound=2.0)
        z_big = np.asarray([a[0] for a in atoms])
        r_big = np.asarray([a[1] for a in atoms])
        kernel = FiniteActivityKernel(
            rate=np.sum(r_big), law=DiscreteLaw(tuple(zip(z_big, r_big / np.sum(r_big)))))
        chars = CharacteristicsY(b=ones, sigma0=ones, measure=kernel)
        ens = simulate_y(engine_setup(chars, cfg, 0.0))
        cum = np.cumsum(r_big) / np.sum(r_big)

        def sizes(i, j, u1, u2):
            return z_big[np.clip(np.searchsorted(cum, u1), 0, len(z_big) - 1)]

        self._check(ens, cfg, float(np.sum(r_big)), sizes)
        assert len(ens.jump_time) > 40
        # the jump of Y is h(h^-1(y_pre) + w) - y_pre, h the identity
        y_pre = _pre_jump_states(ens, ens.x)
        u1, u2 = np.random.default_rng(8).random((2, len(y_pre)))
        z, w = jump_ops(chars, cfg).sample(y_pre, y_pre, u1, u2)
        assert np.array_equal(w, sizes(None, None, u1, u2))
        assert np.array_equal(z, (y_pre + w) - y_pre)

    def test_no_candidates(self):
        # a positive bound whose Poisson counts all come out 0: the
        # candidate arrays are empty and the path noise is unchanged
        cfg = SimConfig(horizon=1.0, n_steps=16, n_paths=20, master_seed=4,
                        small_jump_cutoff=0.4, big_jump_intensity_bound=1e-9)
        chars = CharacteristicsY(b=zeros, sigma0=ones, measure=FiniteActivityKernel(
            rate=1e-9, law=DiscreteLaw(((1.0, 1.0),))))
        ens = simulate_y(engine_setup(chars, cfg, 0.0))
        assert self._check(ens, cfg, 1e-9, lambda i, j, u1, u2: u1) == 0
        assert len(ens.jump_time) == 0 and ens.jump_path.dtype == np.int64


# ---------------------------------------------------------------------------
# the stream definition
# ---------------------------------------------------------------------------

# small and large master seeds: one, two, three and more than four words
STREAM_SEEDS = (0, 1, 17, 41, 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 7,
                2**73 + 3, 2**130 + 99)


class TestSortOrder:
    """The engine's candidate and record orders equal the 3-key and 2-key
    lexsorts they replace, ties in times included."""

    @pytest.mark.parametrize("seed", range(5))
    def test_same_permutations_as_lexsort(self, seed):
        rng = np.random.default_rng(seed)
        P, n, T = 7, 5, 1.0
        dt = T / n
        # times on a grid of 1/40: ties within and across paths, and
        # several candidates of one path within one step
        c_t = T * rng.integers(0, 40, 300) / 40
        c_path = rng.integers(0, P, 300)
        c_step = np.minimum((c_t / dt).astype(np.int64), n - 1)
        key = np.stack([c_step, c_path, c_t], axis=1)
        distinct = len(np.unique(key, axis=0))
        assert distinct < len(key)  # one path's candidates at one time
        assert len(np.unique(key[:, :2], axis=0)) < distinct  # and at two times of one step

        order = simulator._candidate_order(c_step, c_path, c_t, P)
        assert np.array_equal(order, np.lexsort((c_t, c_path, c_step)))

        # accepted records keep the sorted candidates' order
        sel = np.flatnonzero(rng.random(300) < 0.6)
        jp, jt = c_path[order][sel], c_t[order][sel]
        assert np.array_equal(simulator._record_order(jp), np.lexsort((jt, jp)))


def _numpy_words(seed, key):
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)).generate_state(
        4, np.uint64)


class TestStreams:
    """``seed_words`` pinned to numpy's SeedSequence, key for key."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_path_keys_match_seed_sequence(self, seed):
        paths = np.concatenate([np.arange(400), [2**31, 2**32 - 1]])
        ref = np.stack([_numpy_words(seed, (int(k),)) for k in paths])
        assert np.array_equal(simulator.seed_words(seed, paths), ref)

    @pytest.mark.parametrize("seed", (0, 41, 2**64 + 7))
    def test_first_draws_match_default_rng(self, seed):
        for i in (0, 5, 2**32 - 1):
            ref = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            rng = next(simulator.streams(seed, [i]))
            assert np.array_equal(rng.random(8), ref.random(8))

    def test_engine_streams_match_path_rng(self):
        rngs = list(simulator.streams(9, np.arange(6)))
        for i, rng in enumerate(rngs):
            one = next(simulator.streams(9, [i]))
            assert np.array_equal(rng.random(4), one.random(4))

    @pytest.mark.parametrize("key", ([2**32], [-1], [[0, 1]], [0.5], np.asarray(0)))
    def test_bad_keys_rejected(self, key):
        # SeedSequence would spend two words on an entry of 2**32 or more;
        # path indices are one word each, in a 1-d array
        from sdelab import ValidationError
        with pytest.raises(ValidationError):
            simulator.seed_words(0, key)

    def test_indices_beyond_one_word_rejected(self):
        from sdelab import ValidationError
        with pytest.raises(ValidationError):
            next(simulator.streams(0, [2**32]))

    @pytest.mark.parametrize("seed", (-1, 1.5, True, np.float64(2.0), "3", None))
    def test_bad_master_seed_rejected(self, seed):
        from sdelab import ValidationError
        with pytest.raises(ValidationError):
            simulator.seed_words(seed, [0])


# ---------------------------------------------------------------------------
# blocks of paths
# ---------------------------------------------------------------------------

ENSEMBLE_ARRAYS = ("times", "x", "x_end", "dW", "active", "jump_time", "jump_x_pre",
                   "jump_w")


def _block_bytes(setup, block_paths, monkeypatch):
    """Set the byte budget so that a blocked run of ``setup`` walks blocks
    of ``block_paths`` paths."""
    monkeypatch.setattr(simulator, "BLOCK_BYTES",
                        block_paths * simulator._path_bytes(setup, shared=False))


def _blocked(chars, cfg, y0, block_paths, monkeypatch):
    """The block ensembles of a blocked run, with ``block_paths`` paths each."""
    setup = engine_setup(chars, cfg, y0)
    _block_bytes(setup, block_paths, monkeypatch)
    return simulator.simulate_blocks(setup, lambda ens, paths: ens)


def _merged(blocks, field):
    parts = [getattr(b, field) for b in blocks]
    if field == "times" or parts[0] is None:
        assert all(np.array_equal(p, parts[0]) for p in parts)
        return parts[0]
    if field == "jump_path":  # a block's rows count from its first path
        starts = np.cumsum([0] + [b.n_paths for b in blocks[:-1]])
        parts = [start + p for start, p in zip(starts, parts)]
    return np.concatenate(parts)


CASES = ("stable_drop", "stable_gaussian_match", "atom_tanh", "tabulated_tanh")


class TestBlocks:
    """A blocked run equals one run over all paths, bit for bit: each path
    reads only the streams keyed by its own index."""

    def _stable(self, mode):
        kernel = StableTailKernel(gamma=0.5, scale=0.5, alpha=0.25)
        cfg = SimConfig(horizon=1.0, n_steps=16, n_paths=40, master_seed=41,
                        small_jump_cutoff=0.05, small_jump_mode=mode,
                        big_jump_intensity_bound=9.2)
        return build_characteristics(EquationX(CoefficientSet.unit(), kernel)), cfg, 0.0

    def _atom_tanh(self, tanh_coeffs, atom_kernel, clamp1):
        cfg = SimConfig(horizon=1.0, n_steps=32, n_paths=40, master_seed=17,
                        small_jump_cutoff=0.01, big_jump_intensity_bound=1.05)
        eq = EquationX(tanh_coeffs, atom_kernel, clamp1)
        return build_characteristics(eq), cfg, 0.0

    def _tabulated_tanh(self, tanh_coeffs, clamp1):
        # state-dependent atoms: exact profiles and sampling at every step
        cfg = SimConfig(horizon=1.0, n_steps=16, n_paths=40, master_seed=19,
                        small_jump_cutoff=0.05, big_jump_intensity_bound=1.25)
        eq = EquationX(tanh_coeffs, _state_dependent_table(), clamp1)
        return build_characteristics(eq), cfg, 0.0

    def _case(self, case, tanh_coeffs, atom_kernel, clamp1):
        if case.startswith("stable"):
            return self._stable(case[len("stable_"):])
        if case == "atom_tanh":
            return self._atom_tanh(tanh_coeffs, atom_kernel, clamp1)
        return self._tabulated_tanh(tanh_coeffs, clamp1)

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("block_paths", (1, 7, 17))
    def test_blocks_equal_one_run(self, case, block_paths, tanh_coeffs, atom_kernel,
                                  clamp1, monkeypatch):
        chars, cfg, y0 = self._case(case, tanh_coeffs, atom_kernel, clamp1)
        self._check_blocks(chars, cfg, y0, block_paths, monkeypatch)

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("block_paths", (1, 7, 17))
    def test_blocks_with_a_functional_equal_one_run(self, case, block_paths,
                                                    tanh_coeffs, atom_kernel, clamp1,
                                                    monkeypatch):
        chars, cfg, y0 = self._case(case, tanh_coeffs, atom_kernel, clamp1)
        with_sup = replace(chars, functional=clamped_running_sup(1.0))
        whole = self._check_blocks(with_sup, cfg, y0, block_paths, monkeypatch)
        assert not np.array_equal(whole.x, simulate_y(engine_setup(chars, cfg, y0)).x)

    def _check_blocks(self, chars, cfg, y0, block_paths, monkeypatch):
        """Assert that the blocks of ``block_paths`` paths merge into the
        one-block run, which is returned."""
        whole = simulate_y(engine_setup(chars, cfg, y0))
        assert len(whole.jump_time) > 10
        blocks = _blocked(chars, cfg, y0, block_paths, monkeypatch)
        assert [b.n_paths for b in blocks] == [len(r) for r in _block_ranges(cfg,
                                                                            block_paths)]
        for field in ENSEMBLE_ARRAYS + ("jump_path",):
            want, got = getattr(whole, field), _merged(blocks, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), field
        return whole

    def test_jump_ops_built_once_per_run(self, monkeypatch):
        chars, cfg, y0 = self._stable("drop")
        calls = []
        real = simulator.jump_ops
        monkeypatch.setattr(simulator, "jump_ops",
                            lambda *a: calls.append(1) or real(*a))
        assert len(_blocked(chars, cfg, y0, 7, monkeypatch)) == 6
        assert len(calls) == 1

    def _narrow_grid(self, unit_diffusion, clamp1):
        """A run of 100 paths on a grid narrow enough that some leave it."""
        import sdelab as sl
        grid = np.linspace(-2.0, 2.0, 161)
        drift = sl.DriftSpec(beta=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        coeffs = sl.CoefficientSet.build(drift, unit_diffusion,
                                         sl.MollifierConfig(), grid)
        chars = build_characteristics(EquationX(coeffs, None, clamp1))
        cfg = SimConfig(horizon=1.0, n_steps=64, n_paths=100, master_seed=1,
                        big_jump_intensity_bound=0.0, max_exclusion_fraction=1.0)
        return chars, cfg

    def test_exclusion_limit_counts_the_whole_run(self, unit_diffusion, clamp1,
                                                  monkeypatch):
        chars, cfg = self._narrow_grid(unit_diffusion, clamp1)
        excluded = simulate_y(engine_setup(chars, cfg, 0.0)).excluded_count
        assert 0 < excluded < 50
        # some block of 7 paths loses far more than the run's share
        above = replace(cfg, max_exclusion_fraction=(excluded + 0.5) / 100)
        blocks = _blocked(chars, above, 0.0, 7, monkeypatch)
        assert max(b.excluded_count / b.n_paths for b in blocks) > (excluded + 0.5) / 100
        assert sum(b.excluded_count for b in blocks) == excluded
        below = replace(cfg, max_exclusion_fraction=(excluded - 0.5) / 100)
        with pytest.raises(RangeError):
            _blocked(chars, below, 0.0, 7, monkeypatch)
        with pytest.raises(RangeError):
            simulate_y(engine_setup(chars, below, 0.0))

    def test_exclusion_limit_is_inclusive(self, unit_diffusion, clamp1, monkeypatch):
        # exactly max_exclusion_fraction of the paths may leave the range
        chars, cfg = self._narrow_grid(unit_diffusion, clamp1)
        excluded = simulate_y(engine_setup(chars, cfg, 0.0)).excluded_count
        at = replace(cfg, max_exclusion_fraction=excluded / 100)
        assert simulate_y(engine_setup(chars, at, 0.0)).excluded_count == excluded
        assert sum(b.excluded_count for b in _blocked(chars, at, 0.0, 7,
                                                       monkeypatch)) == excluded
        one_less = replace(cfg, max_exclusion_fraction=(excluded - 1) / 100)
        with pytest.raises(RangeError):
            simulate_y(engine_setup(chars, one_less, 0.0))
        with pytest.raises(RangeError):
            _blocked(chars, one_less, 0.0, 7, monkeypatch)

    @pytest.mark.parametrize("n_paths,limit", ((100, 0.01), (200, 0.01), (4000, 0.01),
                                               (100, 0.29)))
    def test_exclusion_check_at_the_limit(self, n_paths, limit):
        cfg = replace(BROWNIAN_CFG, n_paths=n_paths, max_exclusion_fraction=limit)
        at = round(n_paths * limit)
        simulator._check_exclusions(at, cfg)
        with pytest.raises(RangeError, match="of paths left the tabulated range"):
            simulator._check_exclusions(at + 1, cfg)

    @pytest.mark.parametrize("paths", (range(0), range(3, 2), range(0, 41),
                                       range(-1, 4), range(0, 10, 2), (0, 1)))
    def test_bad_path_ranges_rejected(self, paths):
        from sdelab import ValidationError
        cfg = replace(BROWNIAN_CFG, n_paths=40)
        with pytest.raises(ValidationError):
            simulate_y(engine_setup(brownian_chars(), cfg, 0.0), paths=paths)

    @pytest.mark.parametrize("case", ("atom_tanh", "tabulated_tanh"))
    def test_jump_x_pre_is_the_inverse_of_jump_y_pre(self, case, tanh_coeffs,
                                                     atom_kernel, clamp1):
        # jump_x_pre is read from X at the record's row and step, so it is
        # the inverse of Y there, the state just before the jump
        chars, cfg, y0 = self._case(case, tanh_coeffs, atom_kernel, clamp1)
        setup = engine_setup(chars, cfg, y0)
        ens = simulate_y(setup)
        assert len(ens.jump_time) > 10
        y_pre = _pre_jump_states(ens, simulated_y(setup))
        want = np.asarray(chars.transform.inverse(y_pre))
        assert ens.jump_x_pre.dtype == want.dtype
        assert np.array_equal(ens.jump_x_pre, want)

    @pytest.mark.parametrize("case", CASES)
    def test_blocks_equal_one_run_on_any_worker_count(self, case, workers, tanh_coeffs,
                                                      atom_kernel, clamp1, monkeypatch):
        chars, cfg, y0 = self._case(case, tanh_coeffs, atom_kernel, clamp1)
        self._check_blocks(chars, cfg, y0, 7, monkeypatch)
        _assert_no_child_left()

    def test_exclusions_in_blocks_of_different_workers(self, workers, unit_diffusion,
                                                       clamp1, monkeypatch):
        chars, cfg = self._narrow_grid(unit_diffusion, clamp1)
        blocks = _blocked(chars, cfg, 0.0, 7, monkeypatch)
        excluded = sum(b.excluded_count for b in blocks)
        assert excluded == simulate_y(engine_setup(chars, cfg, 0.0)).excluded_count
        # the blocks of share k run on worker k
        share_of = [k for k, share in enumerate(coefficients._shares(100, cfg.n_steps + 1))
                    for _ in range(share.start, share.stop, 7)]
        assert len({share_of[i] for i, b in enumerate(blocks) if b.excluded_count}) \
            >= min(workers, 2)
        above = replace(cfg, max_exclusion_fraction=(excluded + 0.5) / 100)
        assert sum(b.excluded_count for b in _blocked(chars, above, 0.0, 7,
                                                       monkeypatch)) == excluded
        below = replace(cfg, max_exclusion_fraction=(excluded - 0.5) / 100)
        with pytest.raises(RangeError):
            _blocked(chars, below, 0.0, 7, monkeypatch)
        _assert_no_child_left()


def _block_ranges(cfg, block_paths):
    """The blocks of a blocked run: each share walked from its first path."""
    return [range(a, min(a + block_paths, share.stop))
            for share in coefficients._shares(cfg.n_paths, cfg.n_steps + 1)
            for a in range(share.start, share.stop, block_paths)]


def _assert_no_child_left():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestBlockWorkers:
    """``simulate_blocks`` deals its paths in contiguous shares to min(usable
    CPUs, paths, grid values // ``_MIN_SHARE``) workers, this process and
    children forked for the call, and each walks its share in blocks."""

    def _setup(self, n_paths, monkeypatch):
        cfg = replace(BROWNIAN_CFG, n_paths=n_paths, n_steps=8)
        setup = engine_setup(brownian_chars(), cfg, 0.0)
        _block_bytes(setup, 7, monkeypatch)
        return setup

    @pytest.mark.parametrize("n_paths", (40, 14, 2))
    def test_one_process_per_worker(self, workers, n_paths, monkeypatch):
        setup = self._setup(n_paths, monkeypatch)
        pids = simulator.simulate_blocks(setup, lambda ens, paths: os.getpid())
        # each worker runs one contiguous run of blocks, this process the first,
        # and hands ``reduce`` each block's range of paths
        assert simulator.simulate_blocks(setup, lambda ens, paths: paths) \
            == _block_ranges(setup.config, 7)
        assert len(pids) == len(_block_ranges(setup.config, 7))
        runs = [pid for pid, _ in itertools.groupby(pids)]
        assert len(runs) == len(set(runs)) == min(workers, n_paths)
        assert runs[0] == os.getpid()
        _assert_no_child_left()

    def test_min_share_keeps_small_runs_here(self, monkeypatch):
        monkeypatch.setattr(coefficients, "_usable_cpus", lambda: 2)
        pids = simulator.simulate_blocks(self._setup(40, monkeypatch),
                                         lambda ens, paths: os.getpid())
        assert set(pids) == {os.getpid()} and len(pids) == 6

    def test_no_fork_while_another_thread_runs(self, workers, monkeypatch):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            pids = simulator.simulate_blocks(self._setup(40, monkeypatch),
                                             lambda ens, paths: os.getpid())
        finally:
            stop.set()
            thread.join()
        assert set(pids) == {os.getpid()}

    @pytest.mark.parametrize("failing", ((1,), (1, 2), (2, 3), (3, 4), (5,)))
    def test_first_failing_block_raises_here(self, workers, failing, monkeypatch):
        # with two workers blocks 0-2 run here and 3-5 in a child, with
        # three workers blocks 0-1 here, 2-3 and 4-5 in two children; a
        # block is known by its first row of Brownian increments
        from sdelab import ValidationError
        setup = self._setup(40, monkeypatch)
        whole = simulate_y(setup)
        index = {whole.dW[r.start].tobytes(): k
                 for k, r in enumerate(_block_ranges(setup.config, 7))}

        def reduce(ens, paths):
            k = index[ens.dW[0].tobytes()]
            if k in failing:
                raise ValidationError(f"block {k}")
            return k

        assert simulator.simulate_blocks(
            setup, lambda ens, paths: index[ens.dW[0].tobytes()]) == list(range(6))
        with pytest.raises(ValidationError) as got:
            simulator.simulate_blocks(setup, reduce)
        assert type(got.value) is ValidationError
        assert str(got.value) == f"block {failing[0]}"
        _assert_no_child_left()

    def test_unpicklable_child_result_raised_here(self, monkeypatch):
        monkeypatch.setattr(coefficients, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(coefficients, "_MIN_SHARE", 1)
        local = lambda: None  # noqa: E731  (pickles by name, which it lacks)
        with pytest.raises(Exception) as want:
            pickle.dumps(local)
        with pytest.raises(Exception) as got:
            simulator.simulate_blocks(self._setup(40, monkeypatch), lambda ens, paths: local)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        _assert_no_child_left()

    def test_fork_gives_no_warning(self, monkeypatch):
        # Python >= 3.12 warns when a process with more than one OS thread
        # forks; OpenBLAS stops its thread pool before a fork, and no other
        # thread may run
        monkeypatch.setattr(coefficients, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(coefficients, "_MIN_SHARE", 1)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            simulator.simulate_blocks(self._setup(40, monkeypatch), lambda ens, paths: 0)
        assert not [w for w in seen if "fork" in str(w.message)], seen


def _one_process(setup, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(coefficients, "_usable_cpus", lambda: 1)
        return simulate_y(setup)


class TestDealtRun:
    """A run over all paths is dealt in contiguous shares of paths to
    min(usable CPUs, paths, grid values // ``_MIN_SHARE``) workers, and
    equals the one-process run bit for bit.  A share whose steps read X
    inverts each column of Y as its step finishes; one whose steps do not
    inverts its rows in blocks of about ``_BLOCK`` grid values, and here
    a share spans several such blocks, the last one short."""

    @pytest.fixture(autouse=True)
    def _every_size_dealt(self, monkeypatch):
        monkeypatch.setattr(coefficients, "_MIN_SHARE", 1)
        monkeypatch.setattr(simulator, "_BLOCK", 100)  # 3 rows of 33, 5 of 17

    def _check_dealt(self, chars, cfg, y0, monkeypatch):
        setup = engine_setup(chars, cfg, y0)
        want = _one_process(setup, monkeypatch)
        got = simulate_y(setup)
        assert len(want.jump_time) > 10 or setup.ops is None
        for field in ENSEMBLE_ARRAYS + ("jump_path",):
            a, b = getattr(want, field), getattr(got, field)
            assert b.dtype == a.dtype and np.array_equal(b, a), field
        if not chars.transform.is_identity:  # the columns or row blocks join into one
            x = chars.transform.inverse(simulated_y(setup))
            for ens in (want, got):
                assert np.array_equal(ens.x, x)
        _assert_no_child_left()
        return got

    @pytest.mark.parametrize("case", CASES)
    def test_dealt_run_equals_one_process(self, case, workers, tanh_coeffs, atom_kernel,
                                          clamp1, monkeypatch):
        chars, cfg, y0 = TestBlocks()._case(case, tanh_coeffs, atom_kernel, clamp1)
        self._check_dealt(chars, cfg, y0, monkeypatch)
        # the identity, where X is Y itself, only under the stable kernel
        assert chars.transform.is_identity == case.startswith("stable")

    def test_dealt_run_without_jumps(self, workers, tanh_coeffs, clamp1, monkeypatch):
        # no step reads X: the shares invert their rows in blocks
        chars = build_characteristics(EquationX(tanh_coeffs, None, clamp1))
        cfg = SimConfig(horizon=1.0, n_steps=32, n_paths=40, master_seed=17,
                        big_jump_intensity_bound=0.0)
        self._check_dealt(chars, cfg, 0.0, monkeypatch)

    def test_more_workers_than_cores(self, tanh_coeffs, atom_kernel, clamp1, monkeypatch):
        # six shares write disjoint rows of the shared arrays at once
        monkeypatch.setattr(coefficients, "_usable_cpus", lambda: 6)
        chars, cfg, y0 = TestBlocks()._case("atom_tanh", tanh_coeffs, atom_kernel, clamp1)
        self._check_dealt(chars, cfg, y0, monkeypatch)

    @pytest.mark.parametrize("case", CASES)
    def test_whole_run_equals_the_range_route(self, case, workers, tanh_coeffs,
                                              atom_kernel, clamp1):
        # a whole run inverts Y in place in its shared rows of x, a range in
        # its private ones; the workers of a whole run copy their terminal X,
        # and a range keeps a view of its own
        chars, cfg, y0 = TestBlocks()._case(case, tanh_coeffs, atom_kernel, clamp1)
        setup = engine_setup(chars, cfg, y0)
        whole, part = simulate_y(setup), simulate_y(setup, paths=range(cfg.n_paths))
        for field in ENSEMBLE_ARRAYS + ("jump_path",):
            assert np.array_equal(getattr(part, field), getattr(whole, field)), field
        for ens in (whole, part):
            assert np.array_equal(ens.terminal_x(), ens.x[ens.active, -1])
        assert not np.shares_memory(whole.x_end, whole.x)
        assert np.shares_memory(part.x_end, part.x)
        _assert_no_child_left()

    @pytest.mark.parametrize("case", ("stable_drop", "atom_tanh"))
    def test_finished_runs_are_read_only(self, case, workers, tanh_coeffs, atom_kernel,
                                         clamp1):
        # a whole run's shared rows once its workers are joined, a range's
        # own arrays: an in-place write raises
        chars, cfg, y0 = TestBlocks()._case(case, tanh_coeffs, atom_kernel, clamp1)
        setup = engine_setup(chars, cfg, y0)
        for ens in (simulate_y(setup), simulate_y(setup, paths=range(3, cfg.n_paths))):
            for field in ENSEMBLE_ARRAYS + ("jump_path",):
                assert not getattr(ens, field).flags.writeable, field
            with pytest.raises(ValueError, match="read-only"):
                ens.x[0, 1] += 1.0
            with pytest.raises(ValueError, match="read-only"):
                ens.dW[:, 0] = 0.0
        _assert_no_child_left()

    @pytest.mark.parametrize("case", ("stable_drop", "atom_tanh"))
    def test_dealt_run_with_a_functional(self, case, workers, tanh_coeffs, atom_kernel,
                                         clamp1, monkeypatch):
        chars, cfg, y0 = TestBlocks()._case(case, tanh_coeffs, atom_kernel, clamp1)
        with_sup = replace(chars, functional=clamped_running_sup(1.0))
        got = self._check_dealt(with_sup, cfg, y0, monkeypatch)
        assert not np.array_equal(got.x, _one_process(engine_setup(chars, cfg, y0),
                                                      monkeypatch).x)

    def test_exclusions_summed_over_shares(self, workers, unit_diffusion, clamp1,
                                           monkeypatch):
        chars, cfg = TestBlocks()._narrow_grid(unit_diffusion, clamp1)
        ens = simulate_y(engine_setup(chars, cfg, 0.0))
        excluded = ens.excluded_count
        assert np.array_equal(ens.terminal_x(), ens.x[ens.active, -1])
        per_share = [int(np.sum(~ens.active[share.start:share.stop]))
                     for share in coefficients._shares(100, cfg.n_steps + 1)]
        assert sum(per_share) == excluded
        # from two workers on, no share alone passes the limit below
        assert max(per_share) < excluded or workers == 1
        below = replace(cfg, max_exclusion_fraction=(excluded - 0.5) / 100)
        with pytest.raises(RangeError):
            simulate_y(engine_setup(chars, below, 0.0))
        above = replace(cfg, max_exclusion_fraction=(excluded + 0.5) / 100)
        assert simulate_y(engine_setup(chars, above, 0.0)).excluded_count == excluded
        _assert_no_child_left()

    def test_failing_share_raises_here(self, workers, clamp1, monkeypatch):
        # the rate spike of TestGuards stops the run mid-way in some share
        def rate(x):
            return 1.0 + 10.0 * (np.abs(np.asarray(x, dtype=float) - 0.125) < 0.1)
        kernel = FiniteActivityKernel(rate=rate, law=DiscreteLaw(((0.5, 1.0),)))
        cfg = SimConfig(horizon=1.0, n_steps=32, n_paths=200, master_seed=1,
                        small_jump_cutoff=0.1, big_jump_intensity_bound=2.0)
        setup = engine_setup(build_characteristics(
            EquationX(CoefficientSet.unit(), kernel, clamp1)), cfg, 0.0)
        with pytest.raises(Exception) as want:
            _one_process(setup, monkeypatch)
        with pytest.raises(Exception) as got:
            simulate_y(setup)
        assert type(got.value) is type(want.value) is IntensityBoundViolated
        _assert_no_child_left()

    def test_no_fork_while_another_thread_runs(self, workers, monkeypatch):
        caller = os.getpid()

        def b(y):  # a share run in a forked child raises
            if os.getpid() != caller:
                raise RuntimeError("forked")
            return zeros(y)
        setup = engine_setup(CharacteristicsY(b=b, sigma0=ones),
                             replace(BROWNIAN_CFG, n_paths=40, n_steps=8), 0.0)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            got = simulate_y(setup)
        finally:
            stop.set()
            thread.join()
        assert np.array_equal(got.x, _one_process(setup, monkeypatch).x)
        if workers > 1:
            with pytest.raises(RuntimeError, match="forked"):
                simulate_y(setup)
        _assert_no_child_left()

    def test_fork_gives_no_warning(self, monkeypatch):
        monkeypatch.setattr(coefficients, "_usable_cpus", lambda: 2)
        setup = engine_setup(brownian_chars(), replace(BROWNIAN_CFG, n_paths=40), 0.0)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            simulate_y(setup)
        assert not [w for w in seen if "fork" in str(w.message)], seen

    def test_small_runs_stay_in_one_process(self, monkeypatch):
        # a run deals from two shares of _MIN_SHARE grid values on, and so
        # do the martingale columns of its ensemble
        from sdelab import generator
        from sdelab.scenarios import standard_profiles
        shares = []

        def counted(task, parts):
            shares.append(len(parts))
            return [task(part) for part in parts]
        monkeypatch.setattr(coefficients, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(coefficients, "_MIN_SHARE", 2**16)
        monkeypatch.setattr(coefficients, "_forked", counted)
        eq, profiles = EquationX(CoefficientSet.unit()), standard_profiles()[:1]
        below = (2 * 2**16 - 1) // 129
        for n_paths, want in ((below, [1, 1]), (below + 1, [2, 2])):
            shares.clear()
            cfg = replace(BROWNIAN_CFG, n_paths=n_paths, n_steps=128)
            ens = simulate_y(engine_setup(brownian_chars(), cfg, 0.0))
            generator.martingale_columns(eq, ens, profiles, [-1],
                                         generator.jump_tables(eq, profiles, ens.x))
            assert shares == want, n_paths


@pytest.mark.parametrize("case", ("jumps", "tabulated", "functional", "neither"))
def test_each_grid_value_inverted_once(case, tanh_coeffs, atom_kernel, clamp1,
                                       monkeypatch):
    # a run whose steps read X (the jump sampler, a drift functional, the
    # exact profiles of state-dependent atoms) inverts each column of Y
    # once, as its step finishes, and the sampler, the profiles and the
    # functional read those columns: paths x (steps + 1) points in 1-d
    # calls from the engine alone.  A run whose steps do not read X
    # inverts the same points in row blocks at the end.
    kernel = {"jumps": atom_kernel, "tabulated": _state_dependent_table()}.get(case)
    eq = EquationX(tanh_coeffs, kernel, clamp1,
                   clamped_running_sup(1.0) if case == "functional" else None)
    cfg = SimConfig(horizon=1.0, n_steps=32, n_paths=300, master_seed=17,
                    small_jump_cutoff=0.01,
                    big_jump_intensity_bound=1.25 if case == "tabulated" else 1.05)
    setup = engine_setup(build_characteristics(eq), cfg, 0.0)
    calls = []
    inverse = ScaleTransform.inverse

    def counted(self, y):
        calls.append((np.shape(y), sys._getframe(1).f_code.co_name))
        return inverse(self, y)
    monkeypatch.setattr(ScaleTransform, "inverse", counted)
    monkeypatch.setattr(coefficients, "_usable_cpus", lambda: 1)
    ens = simulate_y(setup)
    assert sum(math.prod(shape) for shape, _ in calls) == 300 * 33
    assert {caller for _, caller in calls} == {"_engine"}
    ndim = 2 if case == "neither" else 1
    assert {len(shape) for shape, _ in calls} == {ndim}
    if kernel is not None:
        assert len(ens.jump_time) > 100


def test_drift_and_jump_profiles_share_one_table(tanh_coeffs, atom_kernel, clamp1):
    # b and the three jump profiles are tabulated on the same nodes: one
    # four-column table, whose columns are the two tables' bit for bit
    chars, cfg, y0 = TestBlocks()._atom_tanh(tanh_coeffs, atom_kernel, clamp1)
    setup = engine_setup(chars, cfg, y0)
    assert isinstance(setup.profiles.table, coefficients.CubicTable)
    nodes = setup.profiles.table.x
    y = np.concatenate([nodes, np.random.default_rng(2).uniform(*setup.y_range, 5000)])
    want = np.concatenate([chars.b(y)[None], setup.ops.profiles(None, y)])
    assert want.shape == (4, len(y))
    assert np.array_equal(setup.profiles(None, y), want)


def test_whole_run_holds_no_private_inversion(tanh_coeffs, atom_kernel, clamp1,
                                              monkeypatch):
    # a one-share run inverts its row blocks straight into the shared rows
    # of x, which tracemalloc does not see: 4.2 MB of traced
    # peak, where a private (3, paths, times) inversion copied into them
    # held 28.0 MB.  "drop" keeps out the (paths, steps) small-jump
    # normals of "gaussian_match", almost one such array by themselves.
    import tracemalloc
    monkeypatch.setattr(coefficients, "_usable_cpus", lambda: 1)
    chars, cfg, y0 = TestBlocks()._atom_tanh(tanh_coeffs, atom_kernel, clamp1)
    cfg = replace(cfg, n_paths=4000, n_steps=256, small_jump_mode="drop")
    setup = engine_setup(chars, cfg, y0)
    tracemalloc.start()
    try:
        ens = simulate_y(setup)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_array = ens.x.nbytes
    assert not chars.transform.is_identity and len(ens.jump_time) > 1000
    assert peak < one_array, (peak, one_array)


def test_zero_small_jump_variance_holds_no_small_normals(tanh_coeffs, atom_kernel,
                                                         clamp1, monkeypatch):
    # every atom of atom_jump is big at every node of the tabulated
    # profiles, so "gaussian_match" sends its small-jump normals to the one
    # reused row that "drop" uses: the same traced peak, and the same
    # ensemble bit for bit.  A private (paths, steps) row of them held
    # 9.9 MB of traced peak against 4.2 MB.
    import tracemalloc
    monkeypatch.setattr(coefficients, "_usable_cpus", lambda: 1)
    chars, cfg, y0 = TestBlocks()._atom_tanh(tanh_coeffs, atom_kernel, clamp1)
    assert not jump_ops(chars, cfg).small_jumps
    peaks, runs = [], []
    for mode in ("drop", "gaussian_match"):
        setup = engine_setup(chars, replace(cfg, n_paths=4000, n_steps=256,
                                            small_jump_mode=mode), y0)
        tracemalloc.start()
        try:
            runs.append(simulate_y(setup))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 0.5e6, peaks
    for name in ENSEMBLE_ARRAYS:
        assert np.array_equal(*(getattr(r, name) for r in runs)), name


# ---------------------------------------------------------------------------
# law oracles
# ---------------------------------------------------------------------------

class TestLawOracles:
    def test_brownian_terminal_variance(self, brownian_ens):
        # analytic variance of the terminal value is the horizon
        yt = brownian_ens.x[brownian_ens.active, -1]
        var = np.var(yt, ddof=1)
        se = np.sqrt(2.0 / (len(yt) - 1))  # SE of the variance under normality
        assert abs(var - 1.0) < 3.0 * se

    def test_poisson_counts(self, unit_atom_kernel):
        # unit atom at rate 1, no diffusion, drift cancels the compensator:
        # the terminal value counts a thinned unit-rate stream
        cfg = SimConfig(horizon=1.0, n_steps=128, n_paths=4000, master_seed=2,
                        small_jump_cutoff=0.5, big_jump_intensity_bound=1.5)
        chars = CharacteristicsY(b=ones, sigma0=zeros, measure=unit_atom_kernel)
        ens = simulate_y(engine_setup(chars, cfg, 0.0))
        yt = ens.x[ens.active, -1]
        se = np.std(yt, ddof=1) / np.sqrt(len(yt))
        assert abs(np.mean(yt) - 1.0) < 3.0 * se
        counts = np.round(yt).astype(int)
        assert np.array_equal(np.sort(np.unique(counts % 1)), [0])

    def test_smooth_drift_cross_simulation(self, linear_coeffs, clamp1):
        # the transform route against the exact law N(0.3, 1) of X_1
        cfg = SimConfig(horizon=1.0, n_steps=256, n_paths=4000, master_seed=6,
                        big_jump_intensity_bound=0.0)
        xt = simulate_x_markovian(EquationX(linear_coeffs, None, clamp1), cfg,
                                  0.0).terminal_x()
        for vals, exact in ((xt, 0.3), (np.cos(xt), np.cos(0.3) * np.exp(-0.5))):
            z = abs(np.mean(vals) - exact) / (np.std(vals, ddof=1) / np.sqrt(len(vals)))
            assert z < 3.0

    def test_pushforward_jump_marks_consistent(self, tanh_coeffs, atom_kernel,
                                               clamp1):
        cfg = SimConfig(horizon=1.0, n_steps=256, n_paths=300, master_seed=4,
                        small_jump_cutoff=0.01, big_jump_intensity_bound=1.05)
        eq = EquationX(tanh_coeffs, atom_kernel, clamp1)
        ens = simulate_x_markovian(eq, cfg, 0.0)
        assert len(ens.jump_time) > 100
        tr = tanh_coeffs.transform
        setup = engine_setup(build_characteristics(eq), cfg,
                             float(tr.forward(np.asarray(0.0))))
        y_pre = _pre_jump_states(ens, simulated_y(setup))
        u1, u2 = np.random.default_rng(4).random((2, len(y_pre)))
        z, w = jump_ops(build_characteristics(eq), cfg).sample(ens.jump_x_pre, y_pre,
                                                               u1, u2)
        assert np.array_equal(w, np.full_like(y_pre, 0.1))
        w_check = tr.inverse(y_pre + z) - tr.inverse(y_pre)
        assert np.max(np.abs(w_check - w)) < 1e-8

    def test_euler_weak_error_halves_with_steps(self):
        # noise-free nonlinear drift: the engine's step bias must scale
        # linearly; y' = sin(y + 0.3) has tan((y + 0.3) / 2) = tan(0.4) e^t
        chars = CharacteristicsY(b=lambda y: np.sin(y + 0.3), sigma0=zeros)
        exact = 2.0 * np.arctan(np.tan(0.4) * np.e) - 0.3
        errs = []
        for n in (32, 64):
            cfg = SimConfig(horizon=1.0, n_steps=n, n_paths=1, master_seed=0,
                            big_jump_intensity_bound=0.0)
            errs.append(abs(simulate_y(engine_setup(chars, cfg, 0.5)).x[0, -1] - exact))
        ratio = errs[1] / errs[0]
        assert 0.4 < ratio < 0.6


# ---------------------------------------------------------------------------
# jump-measure branches under a nontrivial transform
# ---------------------------------------------------------------------------

def _split_atom_kernel():
    # the 0.05 atom is big at some states and small at others once pushed
    # through the transform, so its profiles are evaluated exactly
    from sdelab import DiscreteLaw, FiniteActivityKernel
    return FiniteActivityKernel(rate=1.0, law=DiscreteLaw(((0.05, 0.5), (0.8, 0.5))),
                                alpha=1.0)


def _state_dependent_table():
    from sdelab import TabulatedKernel
    grid = np.linspace(-4.0, 4.0, 9)
    measures = tuple(((0.6, 0.5 + 0.05 * i), (-0.4, 0.3)) for i in range(len(grid)))
    return TabulatedKernel(y_grid=grid, measures=measures, alpha=1.0)


class TestJumpMeasureBranches:
    """Discrete laws on the exact fallback and tabulated kernels, each
    simulated through the tanh transform."""

    CASES = {
        "discrete_exact": (_split_atom_kernel, [(0.5, 1.0)],
                           lambda w: np.isin(w, [0.05, 0.8])),
        "tabulated": (_state_dependent_table, [(0.3, 1.0), (-1.0, -0.2)],
                      lambda w: np.isin(w, [0.6, -0.4])),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_marks_support_and_compensator(self, case, tanh_coeffs, clamp1):
        make, region, in_support = self.CASES[case]
        kernel = make()
        cfg = SimConfig(horizon=1.0, n_steps=32, n_paths=300, master_seed=31,
                        small_jump_cutoff=0.05, big_jump_intensity_bound=1.25)
        eq = EquationX(tanh_coeffs, kernel, clamp1)
        ens = simulate_x_markovian(eq, cfg, 0.0)
        assert len(ens.jump_w) > 150
        h = tanh_coeffs.transform.forward
        # the sampler's z at the recorded pre-jump states, from fresh uniforms
        setup = engine_setup(build_characteristics(eq), cfg, float(h(np.asarray(0.0))))
        y_pre = _pre_jump_states(ens, simulated_y(setup))
        u1, u2 = np.random.default_rng(31).random((2, len(y_pre)))
        z, w = jump_ops(build_characteristics(eq), cfg).sample(ens.jump_x_pre, y_pre,
                                                               u1, u2)
        z_check = h(ens.jump_x_pre + w) - h(ens.jump_x_pre)
        assert np.max(np.abs(z_check - z)) < 1e-8
        assert np.all(in_support(w)) and np.all(in_support(ens.jump_w))
        stats = compensator_residual(ens, region, kernel)
        assert abs(stats.zscore) < 3.5

    def test_profiles_match_exact_evaluation(self, tanh_coeffs, atom_kernel, clamp1):
        # (rate, compensator, small variance) assembled by hand from the
        # transformed sizes z = h(x + w) - y, against the tabulated tables
        # at their nodes and the exact fallback anywhere
        tr = tanh_coeffs.transform
        h = tr.forward

        def prepare(kernel, cutoff):
            chars = CharacteristicsY(b=zeros, sigma0=ones, measure=kernel,
                                     transform=tr, trunc=clamp1)
            return jump_ops(chars, SimConfig(small_jump_cutoff=cutoff, master_seed=0))

        ys = simulator._shrunk_image_grid(tr, 0.1, 257)
        z = h(tr.inverse(ys) + 0.1) - ys
        np.testing.assert_allclose(prepare(atom_kernel, 0.01).profiles(None, ys),
                                   [np.ones_like(ys), z, np.zeros_like(ys)],
                                   rtol=1e-12, atol=1e-15)

        ys = simulator._shrunk_image_grid(tr, 0.8, 41)
        z = np.stack([h(tr.inverse(ys) + w) - ys for w in (0.05, 0.8)])
        big = np.abs(z) > 0.05
        exact = [0.5 * big.sum(axis=0),
                 0.5 * np.sum(np.where(big, clamp1(z), 0.0), axis=0),
                 0.5 * np.sum(np.where(big, 0.0, z**2), axis=0)]
        assert 0 < big[0].sum() < len(ys)  # the 0.05 atom changes class
        got = prepare(_split_atom_kernel(), 0.05).profiles(tr.inverse(ys), ys)
        np.testing.assert_allclose(got, exact, rtol=1e-12, atol=1e-15)


def _measure_at(kernel, x):
    """The atoms (positions, masses) of the grid state nearest to the state
    ``x``, read from ``kernel.measures`` at a brute-force ``argmin`` (first
    minimum on ties), so that the reference does not use the kernel's own
    lookup."""
    atoms = kernel.measures[int(np.argmin(np.abs(kernel.y_grid - x)))]
    return (np.asarray([a[0] for a in atoms], dtype=float),
            np.asarray([a[1] for a in atoms], dtype=float))


def _tabulated_loop_ops(kernel, transform, delta, trunc):
    """The tabulated kernel's profiles and sampler as a loop over states,
    each reading its own measure through ``_measure_at``."""
    def rows(y):
        x = np.asarray(transform.inverse(y))
        for xi, yi in zip(x, y):
            pos, mass = _measure_at(kernel, xi)
            yield pos, np.asarray(transform.forward(xi + pos)) - yi, mass

    def profiles(y):
        out = np.empty((3, y.size))
        for i, (_, z, m) in enumerate(rows(y)):
            big = np.abs(z) > delta
            out[:, i] = (np.sum(m[big]), np.sum(np.asarray(trunc(z)) * m * big),
                         np.sum(z**2 * m * ~big))
        return out

    def sample(y_pre, u1):
        z_out, w_out = np.empty_like(y_pre), np.empty_like(y_pre)
        for i, (pos, z, m) in enumerate(rows(y_pre)):
            big = np.abs(z) > delta
            cum = np.cumsum(m[big]) / np.sum(m[big])
            j = int(np.clip(np.searchsorted(cum, u1[i]), 0, big.sum() - 1))
            z_out[i], w_out[i] = z[big][j], pos[big][j]
        return z_out, w_out
    return profiles, sample


def _mixed_table():
    """4 to 12 atoms per grid state, so that sums of 8 terms and more (which
    numpy adds pairwise) occur, with small ones (|w| < 0.05) among them,
    some ahead of the big ones."""
    from sdelab import TabulatedKernel
    grid = np.linspace(-4.0, 4.0, 9)
    atoms = ((0.02, 0.3), (0.6, 0.2), (-0.01, 0.1), (-0.4, 0.3), (0.3, 0.25),
             (0.9, 0.05), (-0.7, 0.15), (0.04, 0.2), (-0.2, 0.1), (1.1, 0.1),
             (-0.9, 0.05), (0.45, 0.1))
    measures = tuple(tuple((w, m + 0.01 * i) for w, m in atoms[:4 + i])
                     for i in range(len(grid)))
    return TabulatedKernel(y_grid=grid, measures=measures, alpha=1.0)


class TestTabulatedKernelOps:
    """The batched tabulated-kernel ops against a loop over states."""

    @pytest.mark.parametrize("transformed", (False, True), ids=("identity", "tanh"))
    @pytest.mark.parametrize("make", (_state_dependent_table, _mixed_table))
    def test_batched_ops_equal_state_loop(self, make, transformed, tanh_coeffs, clamp1):
        kernel = make()
        tr = tanh_coeffs.transform if transformed else ScaleTransform.identity()
        profiles, sample, _ = simulator._atom_kernel_ops(kernel, tr, 0.05, clamp1)
        ref_profiles, ref_sample = _tabulated_loop_ops(kernel, tr, 0.05, clamp1)
        # states on, between and halfway between the grid nodes
        x = np.concatenate([np.linspace(-4.5, 4.5, 301), kernel.y_grid,
                            kernel.y_grid[:-1] + 0.5])
        y = np.asarray(tr.forward(x))
        assert np.array_equal(profiles(tr.inverse(y).reshape(6, -1), y.reshape(6, -1)),
                              ref_profiles(y).reshape(3, 6, -1))
        u1 = np.random.default_rng(8).uniform(size=len(y))
        has_big = ref_profiles(y)[0] > 0
        got = sample(tr.inverse(y[has_big]), y[has_big], u1[has_big], None)
        want = ref_sample(y[has_big], u1[has_big])
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("transformed", (False, True), ids=("identity", "tanh"))
    def test_sampler_equals_big_first_route(self, transformed, tanh_coeffs, clamp1):
        # the chosen atom indexed in its row against the rows reordered big
        # first: padded rows of 4 to 12 atoms, small ones ahead of big ones
        kernel = _mixed_table()
        tr = tanh_coeffs.transform if transformed else ScaleTransform.identity()
        _, sample, _ = simulator._atom_kernel_ops(kernel, tr, 0.05, clamp1)
        x = np.concatenate([np.linspace(-4.5, 4.5, 301), kernel.y_grid,
                            kernel.y_grid[:-1] + 0.5])
        y = np.asarray(tr.forward(x))
        x = np.asarray(tr.inverse(y))  # the engine's X column
        atoms = kernel.atoms(x)
        big = np.abs(np.asarray(tr.forward(x[:, None] + atoms.pos)) - y[:, None]) > 0.05
        has_big = big.any(axis=-1)
        assert has_big.all() and not big.all(axis=-1).any()
        assert (np.argmax(big, axis=-1) > 0).any()  # a small atom ahead of the big ones
        x, y = x[has_big], y[has_big]
        u1 = np.random.default_rng(9).uniform(size=len(y))
        got = sample(x, y, u1, None)
        want = big_first_sample(kernel, tr, 0.05, x, y, u1)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert len(np.unique(got[1])) > 3

    @pytest.mark.parametrize("transformed", (False, True), ids=("identity", "tanh"))
    @pytest.mark.parametrize("make", (_state_dependent_table, _mixed_table))
    def test_generator_jump_term_equals_state_loop(self, make, transformed,
                                                   tanh_coeffs, clamp1):
        from sdelab import EquationX, generator, generator_state, standard_profiles
        kernel = make()
        coeffs = tanh_coeffs if transformed else CoefficientSet.unit()
        tr = coeffs.transform
        x = np.concatenate([np.linspace(-4.5, 4.5, 301), kernel.y_grid,
                            kernel.y_grid[:-1] + 0.5]).reshape(6, -1)
        state = generator_state(EquationX(coeffs, kernel, clamp1),
                                np.linspace(0, 1, 53), x, None)
        def compensated_sum(fx, fpx, y):
            # every atom's compensated difference, summed in one integral
            fy = float(np.asarray(fx(np.asarray(y))))
            fpy = float(np.asarray(fpx(np.asarray(y))))

            def g(w):
                w = np.asarray(w, dtype=float)
                return fx(y + w) - fy - np.asarray(clamp1(w)) * fpy

            return kernel.integral(y, g)

        for f in standard_profiles():
            fx, fpx = f.as_x_callables(tr)
            want = [compensated_sum(fx, fpx, float(xi)) for xi in x.ravel()]
            got = generator._jump_term_grid(
                f, state, f.phi(state.hx), f.phi_prime(state.hx) * state.hpx)
            np.testing.assert_allclose(got, np.reshape(want, x.shape), rtol=1e-13,
                                       atol=0, err_msg=f.name)


class TestTabulatedKernelThroughTransform:
    """The drift correction and the gamma compensator of a tabulated kernel
    under the tanh transform, summed over each state's atoms."""

    def test_drift_correction_equals_definition(self, tanh_coeffs, clamp1):
        # the defining integral of trunc(h(x + w) - h(x)) - h'(x) trunc(w),
        # atom by atom at each node's own measure
        kernel = _mixed_table()
        tr = tanh_coeffs.transform
        b = build_characteristics(EquationX(tanh_coeffs, kernel)).b
        want = []
        for y in b.x:
            x = float(tr.inverse(y))
            hx, hpx = float(tr.forward(x)), float(tr.deriv(x))
            pos, mass = _measure_at(kernel, x)
            want.append(sum(m * (float(clamp1(float(tr.forward(x + w)) - hx))
                                 - hpx * float(clamp1(w)))
                            for w, m in zip(pos, mass)))
        np.testing.assert_allclose(b(b.x), want, rtol=1e-12, atol=0)

    def test_gamma_compensator_equals_state_loop(self, tanh_coeffs, clamp1):
        from sdelab import gamma_residual_qv, pathcalc
        kernel = _mixed_table()
        cfg = SimConfig(horizon=1.0, n_steps=16, n_paths=40, master_seed=5,
                        small_jump_cutoff=0.05, big_jump_intensity_bound=3.0)
        eq = EquationX(tanh_coeffs, kernel, clamp1)
        ens = simulate_x_markovian(eq, cfg, 0.0)
        rep = gamma_residual_qv(ens, np.sin, np.cos, eq, (0.25, 0.125))
        assert np.all(np.isfinite(rep.mean_qv))
        x = ens.x[ens.active, :-1]
        got = pathcalc._phi_jump_compensator(eq, 0.05, np.sin, x.min(), x.max(),
                                             1.0)(x)
        h = tanh_coeffs.transform.forward
        want = []
        for xi in x.ravel():
            pos, mass = _measure_at(kernel, xi)
            z = h(xi + pos) - h(xi)
            want.append(np.sum(mass * np.where(np.abs(z) > 0.05,
                                               np.sin(xi + pos) - np.sin(xi), 0.0)))
        assert np.array_equal(got, np.reshape(want, x.shape))

# ---------------------------------------------------------------------------
# guard rails
# ---------------------------------------------------------------------------

class TestGuards:
    def test_intensity_bound_violation_raises(self, unit_atom_kernel):
        cfg = SimConfig(horizon=1.0, n_steps=32, n_paths=10, master_seed=1,
                        small_jump_cutoff=0.4, big_jump_intensity_bound=0.5)
        chars = CharacteristicsY(b=zeros, sigma0=zeros, measure=unit_atom_kernel)
        with pytest.raises(IntensityBoundViolated):
            simulate_y(engine_setup(chars, cfg, 0.0))

    def test_rate_spike_between_scan_nodes_fails_mid_run(self, clamp1):
        # the start-up scan sees rate 1 at its nodes 0.25 apart; the spike
        # on (0.025, 0.225) lies between two of them, so the run stops at
        # the first candidate that meets it, naming the step
        def rate(x):
            return 1.0 + 10.0 * (np.abs(np.asarray(x, dtype=float) - 0.125) < 0.1)
        kernel = FiniteActivityKernel(rate=rate, law=DiscreteLaw(((0.5, 1.0),)))
        cfg = SimConfig(horizon=1.0, n_steps=32, n_paths=200, master_seed=1,
                        small_jump_cutoff=0.1, big_jump_intensity_bound=2.0)
        setup = engine_setup(build_characteristics(
            EquationX(CoefficientSet.unit(), kernel, clamp1)), cfg, 0.0)
        with pytest.raises(IntensityBoundViolated, match=r"> 1 at step \d+$"):
            simulate_y(setup)

    def test_power_tail_kernel_needs_the_identity_transform(self, tanh_coeffs,
                                                            stable_half_kernel):
        chars = CharacteristicsY(b=zeros, sigma0=ones, measure=stable_half_kernel,
                                 transform=tanh_coeffs.transform)
        cfg = SimConfig(n_steps=16, n_paths=10, master_seed=1, small_jump_cutoff=0.1,
                        big_jump_intensity_bound=10.0)
        with pytest.raises(RangeError, match="identity transform"):
            jump_ops(chars, cfg)

    def test_nan_rate_fails_closed(self, clamp1):
        # the scanned supremum rate is NaN: the run used to finish with no
        # jumps and a NaN terminal mean
        from sdelab import DiscreteLaw, FiniteActivityKernel
        kernel = FiniteActivityKernel(rate=lambda x: np.full_like(np.asarray(x), np.nan),
                                      law=DiscreteLaw(((0.1, 1.0),)))
        cfg = SimConfig(horizon=1.0, n_steps=16, n_paths=50, master_seed=1,
                        small_jump_cutoff=0.01, big_jump_intensity_bound=1.05)
        with pytest.raises(IntensityBoundViolated, match="nan"):
            simulate_x_markovian(EquationX(CoefficientSet.unit(), kernel, clamp1), cfg,
                                 0.0)

    @pytest.mark.parametrize("value", (np.nan, np.inf, -1.0))
    @pytest.mark.parametrize("transformed", (False, True), ids=("unit", "tanh"))
    def test_bad_callable_rate_fails_closed(self, transformed, value, tanh_coeffs):
        # the same error under either transform: under tanh a NaN rate used
        # to escape as scipy's ValueError from the drift-correction table,
        # and a negative rate ran under both with no jumps
        kernel = FiniteActivityKernel(rate=lambda x: np.full_like(np.asarray(x), value),
                                      law=DiscreteLaw(((0.1, 1.0),)))
        coeffs = tanh_coeffs if transformed else CoefficientSet.unit()
        cfg = SimConfig(horizon=1.0, n_steps=16, n_paths=50, master_seed=1,
                        small_jump_cutoff=0.01, big_jump_intensity_bound=1.05)
        with pytest.raises(IntensityBoundViolated, match="jump rate"):
            simulate_x_markovian(EquationX(coeffs, kernel), cfg, 0.0)

    def test_cutoff_must_stay_below_truncation_radius(self):
        cfg = SimConfig(horizon=1.0, n_steps=32, n_paths=10, master_seed=1,
                        small_jump_cutoff=2.0, big_jump_intensity_bound=1.0)
        from sdelab import ValidationError
        with pytest.raises(ValidationError):
            simulate_y(engine_setup(brownian_chars(), cfg, 0.0))

    @pytest.mark.parametrize("seed", (-1, -3, 1.5, True, np.bool_(True), "7", None))
    def test_master_seed_must_be_a_nonnegative_integer(self, seed):
        from sdelab import ValidationError
        with pytest.raises(ValidationError):
            SimConfig(master_seed=seed)
        with pytest.raises(ValidationError):
            replace(BROWNIAN_CFG, master_seed=seed)

    @pytest.mark.parametrize("size", (0, -4, 40.7, 40.0, True, "40", None))
    @pytest.mark.parametrize("field", ("n_paths", "n_steps"))
    def test_sizes_must_be_positive_integers(self, field, size):
        from sdelab import ValidationError
        with pytest.raises(ValidationError):
            SimConfig(**{field: size})
        with pytest.raises(ValidationError):
            replace(BROWNIAN_CFG, **{field: size})

    @pytest.mark.parametrize("field, value", (
        ("small_jump_cutoff", np.nan), ("small_jump_cutoff", np.inf),
        ("big_jump_intensity_bound", np.nan), ("big_jump_intensity_bound", np.inf),
        ("max_exclusion_fraction", np.nan), ("max_exclusion_fraction", -0.1),
        ("max_exclusion_fraction", 1.5)))
    def test_jump_settings_must_be_finite_and_in_range(self, field, value):
        from sdelab import ValidationError
        with pytest.raises(ValidationError, match=field):
            SimConfig(**{field: value})
        with pytest.raises(ValidationError, match=field):
            replace(BROWNIAN_CFG, **{field: value})

    def test_numpy_integer_sizes_accepted(self):
        cfg = SimConfig(n_paths=np.int64(40), n_steps=np.uint16(16))
        assert (cfg.n_paths, cfg.n_steps) == (40, 16)

    @pytest.mark.parametrize("seed", (0, 7, np.int64(7), np.uint32(7), 2**80))
    def test_integer_master_seeds_accepted(self, seed):
        assert SimConfig(master_seed=seed).master_seed == seed

    def test_narrow_grid_exclusion_failure(self, unit_diffusion, clamp1):
        import sdelab as sl
        grid = np.linspace(-0.5, 0.5, 51)
        drift = sl.DriftSpec(beta=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        coeffs = sl.CoefficientSet.build(drift, unit_diffusion,
                                         sl.MollifierConfig(), grid)
        cfg = SimConfig(horizon=1.0, n_steps=64, n_paths=100, master_seed=1,
                        big_jump_intensity_bound=0.0)
        with pytest.raises(RangeError):
            simulate_x_markovian(EquationX(coeffs, None, clamp1), cfg, 0.0)


# ---------------------------------------------------------------------------
# the characteristics carry their transform and truncation
# ---------------------------------------------------------------------------

class TestCharacteristics:
    def test_simulate_y_reads_transform_and_truncation(self, tanh_coeffs,
                                                       atom_kernel, clamp1):
        cfg = SimConfig(horizon=1.0, n_steps=32, n_paths=50, master_seed=3)
        eq = EquationX(tanh_coeffs, atom_kernel, clamp1)
        x0 = 0.3
        y0 = float(tanh_coeffs.transform.forward(np.asarray(x0)))
        ens = simulate_y(engine_setup(build_characteristics(eq), cfg, y0))
        ref = simulate_x_markovian(eq, cfg, x0)
        assert len(ref.jump_w) > 0
        assert not np.array_equal(ref.x, tanh_coeffs.transform.forward(ref.x))
        for name in ("x", "x_end", "jump_x_pre", "jump_w"):
            assert np.array_equal(getattr(ens, name), getattr(ref, name)), name
        # the cutoff is checked against the truncation the drift was built with
        narrow = TruncationFunction(radius=0.5, cap=0.5)
        from sdelab import ValidationError
        with pytest.raises(ValidationError):
            engine_setup(build_characteristics(EquationX(tanh_coeffs, atom_kernel, narrow)),
                         replace(cfg, small_jump_cutoff=0.6), y0)

    def test_no_measure_gives_no_ops(self):
        assert jump_ops(brownian_chars(), SimConfig()) is None


# ---------------------------------------------------------------------------
# the drift functional inside the engine
# ---------------------------------------------------------------------------

class TestEngineFunctional:
    @pytest.mark.parametrize("transformed", (True, False),
                             ids=("tanh_transform", "identity"))
    def test_step_receives_the_columns_of_x(self, transformed, tanh_coeffs,
                                            atom_kernel, clamp1):
        seen = []

        def record(carry, x):
            seen.append(np.array(x))
            return carry, np.zeros_like(x)

        cfg = SimConfig(horizon=1.0, n_steps=32, n_paths=50, master_seed=3)
        if transformed:
            chars = build_characteristics(EquationX(tanh_coeffs, atom_kernel, clamp1))
            y0 = float(chars.transform.forward(np.asarray(0.3)))
        else:
            chars, y0 = brownian_chars(), 0.3
        chars = replace(chars, functional=PathFunctional("record", record))
        ens = simulate_y(engine_setup(chars, cfg, y0))
        if transformed:  # a step fed Y = h(X) would differ from X
            assert not np.array_equal(ens.x, chars.transform.forward(ens.x))
        assert len(seen) == cfg.n_steps
        for s, x in enumerate(seen):
            assert np.array_equal(x, ens.x[:, s]), s


# ---------------------------------------------------------------------------
# reweighting
# ---------------------------------------------------------------------------

def _kappa_T(ens, functional):
    """The terminal Girsanov weight of every path of ``ens``."""
    h = functional.grid_values(ens.times, ens.x)
    return girsanov_weight(ens.times, h, ens.dW)[:, -1]


class TestGirsanov:
    def test_zero_functional_weight_exactly_one(self, brownian_ens):
        from sdelab import zero_functional
        h = zero_functional().grid_values(brownian_ens.times, brownian_ens.x)
        assert np.all(girsanov_weight(brownian_ens.times, h, brownian_ens.dW) == 1.0)

    def test_single_path_interface(self, brownian_ens):
        from sdelab import MissingDriverRecord
        times, f = brownian_ens.times, constant_functional(0.5)
        h = f.grid_values(times, brownian_ens.x[3])
        kappa = girsanov_weight(times, h, brownian_ens.dW[3])
        assert kappa.shape == times.shape and kappa[0] == 1.0 and kappa[-1] > 0
        assert kappa[-1] == _kappa_T(brownian_ens, f)[3]
        with pytest.raises(MissingDriverRecord):
            girsanov_weight(times, h, None)

    def test_constant_drift_lognormal_moments(self, brownian_ens):
        # log weight is Gaussian with mean -c^2 T / 2 and variance c^2 T
        c = 0.8
        logk = np.log(_kappa_T(brownian_ens, constant_functional(c)))
        n = len(logk)
        se_mean = np.std(logk, ddof=1) / np.sqrt(n)
        assert abs(np.mean(logk) + 0.5 * c**2) < 3.0 * se_mean
        var = np.var(logk, ddof=1)
        se_var = np.sqrt(2.0 / (n - 1)) * c**2
        assert abs(var - c**2) < 3.0 * se_var

    def test_weight_mean_one(self, brownian_ens):
        k = _kappa_T(brownian_ens, constant_functional(0.5))
        se = np.std(k, ddof=1) / np.sqrt(len(k))
        assert abs(np.mean(k) - 1.0) < 3.0 * se

    def test_running_sup_weight_mean_one(self, brownian_ens):
        k = _kappa_T(brownian_ens, clamped_running_sup(1.0))
        se = np.std(k, ddof=1) / np.sqrt(len(k))
        assert abs(np.mean(k) - 1.0) < 3.0 * se

    def test_reweighting_matches_direct_drift(self, brownian_ens):
        c = 0.5
        est = weighted_expectation(_kappa_T(brownian_ens, constant_functional(c)),
                                   brownian_ens.x[:, -1])
        chars = replace(brownian_chars(), functional=constant_functional(c))
        direct = simulate_y(engine_setup(chars, replace(BROWNIAN_CFG, master_seed=101),
                                         0.0))
        yt = direct.x[direct.active, -1]
        dmean = np.mean(yt)
        dse = np.std(yt, ddof=1) / np.sqrt(direct.n_paths)
        z = abs(est.value - dmean) / np.sqrt(est.se**2 + dse**2)
        assert z < 3.0

    def test_plain_weights_recover_plain_mean(self, brownian_ens):
        est = weighted_expectation(np.ones(brownian_ens.n_paths), brownian_ens.x[:, -1])
        assert est.value == pytest.approx(float(np.mean(brownian_ens.x[:, -1])))

    def test_normalization_estimate(self, brownian_ens):
        est = weighted_expectation(_kappa_T(brownian_ens, constant_functional(0.5)),
                                   np.ones(brownian_ens.n_paths))
        assert abs(est.value - 1.0) < 3.0 * est.se

    def test_degenerate_weights_detected(self, brownian_ens):
        w = np.zeros(brownian_ens.n_paths)
        w[0] = 1.0
        with pytest.raises(DegenerateWeights):
            weighted_expectation(w, brownian_ens.x[:, -1])


# ---------------------------------------------------------------------------
# compensator residuals
# ---------------------------------------------------------------------------

class TestCompensatorResidual:
    def test_atom_kernel_mean_zero(self, tanh_coeffs, atom_kernel, clamp1):
        cfg = SimConfig(horizon=1.0, n_steps=256, n_paths=1000, master_seed=9,
                        small_jump_cutoff=0.01, big_jump_intensity_bound=1.05)
        ens = simulate_x_markovian(EquationX(tanh_coeffs, atom_kernel, clamp1), cfg, 0.0)
        stats = compensator_residual(ens, [(0.05, 0.2)], atom_kernel)
        assert abs(stats.zscore) < 3.0
        counts = np.bincount(ens.jump_path, minlength=ens.n_paths)
        assert abs(np.mean(counts) - 1.0) < 3.0 * np.std(counts) / np.sqrt(len(counts))

    def test_stable_kernel_mean_zero(self, clamp1):
        import sdelab as sl
        coeffs = sl.CoefficientSet.unit()
        kernel = StableTailKernel(gamma=1.5, scale=0.5, alpha=0.75)
        lam = 2.0 * float(kernel.one_tail_mass(0.1))
        cfg = SimConfig(horizon=1.0, n_steps=128, n_paths=1000, master_seed=12,
                        small_jump_cutoff=0.1, big_jump_intensity_bound=lam * 1.02)
        ens = simulate_x_markovian(EquationX(coeffs, kernel, clamp1), cfg, 0.0)
        stats = compensator_residual(ens, [(1.0, np.inf), (-np.inf, -1.0)], kernel)
        assert abs(stats.zscore) < 3.0

    def test_zero_standard_error_gives_nan_zscore(self):
        from sdelab.simulator import ResidualStats
        stats = ResidualStats(mean=0.5, se=0.0, per_path=np.full(40, 0.5))
        assert np.isnan(stats.zscore)

    def test_region_touching_zero_rejected(self, brownian_ens, atom_kernel):
        from sdelab import ValidationError
        with pytest.raises(ValidationError):
            compensator_residual(brownian_ens, [(-0.5, 0.5)], atom_kernel)


# ---------------------------------------------------------------------------
# canonical decomposition stabilisation
# ---------------------------------------------------------------------------

def ident(x):
    return np.asarray(x, dtype=float)


class TestCanonicalDecomposition:
    def test_zero_drift_levels_vanish(self, flat_coeffs, clamp1):
        # short horizon keeps every path inside the cutoff plateau, where
        # the approximant generator vanishes identically
        cfg = SimConfig(horizon=0.25, n_steps=64, n_paths=50, master_seed=13,
                        big_jump_intensity_bound=0.0)
        ens = simulate_x_markovian(EquationX(flat_coeffs, None, clamp1), cfg, 0.0)
        aps = [domain_approximant(ident, ones, flat_coeffs.transform, n=n)
               for n in (3, 4, 5)]
        diag = canonical_decomposition_residual(ens, flat_coeffs, aps)
        assert np.max(np.abs(diag.finest_integrals)) < 1e-10
        assert np.max(diag.sup_gap_mean) < 1e-10

    def test_rough_drift_levels_stabilize(self, clamp1):
        # no closed form here: the only observable is that consecutive
        # approximation levels get closer
        from sdelab.scenarios import build_bundle
        from sdelab import ScenarioSpec
        bundle = build_bundle(ScenarioSpec(name="weierstrass_drift", n_paths=30,
                                           n_steps=64))
        ens = simulate_x_markovian(bundle.eq, bundle.sim, bundle.x0)
        aps = [domain_approximant(ident, ones, bundle.eq.coeffs.transform, n=n)
               for n in (2, 4, 8)]
        diag = canonical_decomposition_residual(ens, bundle.eq.coeffs, aps)
        assert diag.sup_gap_mean[1] < diag.sup_gap_mean[0]

    def test_classical_drift_recovered(self, linear_coeffs, clamp1):
        # for beta' = 0.3 the stabilised integral is 0.3 t on the plateau
        cfg = SimConfig(horizon=0.5, n_steps=128, n_paths=50, master_seed=14,
                        big_jump_intensity_bound=0.0)
        ens = simulate_x_markovian(EquationX(linear_coeffs, None, clamp1), cfg, 0.0)
        aps = [domain_approximant(ident, ones, linear_coeffs.transform, n=n)
               for n in (2, 4)]
        diag = canonical_decomposition_residual(ens, linear_coeffs, aps)
        final = diag.finest_integrals[:, -1]
        assert np.max(np.abs(final - 0.3 * 0.5)) < 0.05
        assert diag.sup_gap_mean[-1] < 0.05
