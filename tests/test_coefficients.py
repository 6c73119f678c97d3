"""Potential construction, scale transform, conjugated generator pieces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab import (CoefficientSet, ConjugateTestFunction, DiffusionSpec, DriftSpec,
                    MollifierConfig, NonConvergent, QuadratureFailure, RangeError,
                    ScaleTransform, build_scale_transform, check_hypotheses,
                    compute_drift_potential, local_generator, scenario_names,
                    transformed_diffusion)
from approximants import domain_approximant
from conftest import unit_sigma, zero_beta
from reference import bump_mollifier, identity_profile, square_identity_residual

# lacunary sine series: beta = sum 2^(-j/2) sin(2^j x), j = 0..8.
# With unit sigma the potential is exactly 2(beta(x) - beta(0)) = 2 beta(x);
# the modulus-of-continuity exponent of such a series is 1/2.
_J = np.arange(9)


def weier_beta(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for j in _J:
        out = out + 2.0 ** (-j / 2.0) * np.sin(2.0**j * x)
    return out


@pytest.fixture(scope="module")
def unit_diff():
    return DiffusionSpec(sigma=unit_sigma, sigma_min=1.0, sigma_max=1.0)


@pytest.fixture(scope="module")
def weier_potential(unit_diff):
    grid = np.linspace(-2.0, 2.0, 801)
    moll = MollifierConfig(widths=(1.25e-5, 6.25e-6))
    return compute_drift_potential(DriftSpec(beta=weier_beta), unit_diff, moll, grid)


# ---------------------------------------------------------------------------
# potential construction
# ---------------------------------------------------------------------------

class TestDriftPotential:
    def test_zero_drift_gives_zero_potential(self, unit_diff):
        grid = np.linspace(-3.0, 3.0, 301)
        pot = compute_drift_potential(DriftSpec(beta=zero_beta), unit_diff,
                                      MollifierConfig(), grid)
        assert pot.converged
        assert np.max(np.abs(pot.values)) < 1e-14

    def test_linear_drift_closed_form(self, linear_coeffs):
        # oracle: 2 * int_0^x 0.3 dy = 0.6 x
        pot = linear_coeffs.potential
        err = np.max(np.abs(pot.values - 0.6 * pot.grid))
        assert err < 1e-6
        assert pot.converged

    def test_weierstrass_collapses_to_twice_beta(self, weier_potential):
        # oracle: with unit sigma the integral telescopes to 2 beta
        err = np.max(np.abs(weier_potential.values - 2.0 * weier_beta(weier_potential.grid)))
        assert err < 1e-6

    def test_weierstrass_roughness_exponent(self, weier_potential):
        assert 0.35 < weier_potential.alpha < 0.65
        assert weier_potential.holder_const > 0

    def test_nonconvergent_raises(self, unit_diff):
        grid = np.linspace(-2.0, 2.0, 201)
        moll = MollifierConfig(widths=(0.2, 0.1), convergence_tol=1e-10)
        with pytest.raises(NonConvergent):
            compute_drift_potential(DriftSpec(beta=weier_beta), unit_diff, moll, grid)

    def test_nonstrict_mode_sets_flag(self, unit_diff):
        grid = np.linspace(-2.0, 2.0, 201)
        moll = MollifierConfig(widths=(0.2, 0.1), convergence_tol=1e-10)
        pot = compute_drift_potential(DriftSpec(beta=weier_beta), unit_diff, moll,
                                      grid, strict=False)
        assert not pot.converged
        assert pot.level_gap > 1e-10

    def test_mollifier_families_agree(self, unit_diff):
        # two different smoothing families must land on the same limit
        grid = np.linspace(-2.0, 2.0, 401)
        drift = DriftSpec(beta=lambda x: 0.3 * np.asarray(x, dtype=float)
                          + 0.05 * np.sin(3.0 * np.asarray(x, dtype=float)))
        moll = MollifierConfig(widths=(0.005, 0.0025))
        a = compute_drift_potential(drift, unit_diff, moll, grid)
        with bump_mollifier():
            b = compute_drift_potential(drift, unit_diff, moll, grid)
        assert np.max(np.abs(a.values - b.values)) < 10.0 * moll.convergence_tol

    def test_grid_must_contain_zero(self, unit_diff):
        with pytest.raises(ValueError):
            compute_drift_potential(DriftSpec(beta=zero_beta), unit_diff,
                                    MollifierConfig(), np.linspace(0.5, 2.0, 50))


_LADDER = (1.25e-5, 6.25e-6)


class TestMollifierConfig:
    @pytest.mark.parametrize("kw", (
        dict(widths=(0.25,)), dict(widths=()), dict(widths=(0.5, np.nan)),
        dict(widths=(np.nan, 0.25)), dict(widths=(np.inf, 0.25)),
        dict(widths=(0.5, -0.25)), dict(widths=(0.25, 0.5)),
        dict(quadrature_tol=np.nan), dict(convergence_tol=np.nan),
        dict(quadrature_tol=np.inf), dict(convergence_tol=0.0),
        dict(widths=(0.02, 0.01, 0.005))))
    def test_bad_ladder_or_tolerance_rejected(self, kw):
        with pytest.raises(ValueError):
            MollifierConfig(**kw)

    def test_one_width_cannot_hide_nonconvergence(self, unit_diff):
        # a one-width ladder compared nothing: level gap 0, "converged";
        # with a second width the same series does not converge
        with pytest.raises(ValueError, match="exactly two"):
            MollifierConfig(widths=(0.25,))
        with pytest.raises(NonConvergent):
            compute_drift_potential(DriftSpec(beta=weier_beta), unit_diff,
                                    MollifierConfig(widths=(0.5, 0.25)),
                                    np.linspace(-2.0, 2.0, 401))


class TestDiffusionBand:
    grid = np.linspace(-1.0, 1.0, 11)

    @staticmethod
    def constant(c, lo, hi):
        return DiffusionSpec(sigma=lambda x: np.full_like(np.asarray(x, dtype=float), c),
                             sigma_min=lo, sigma_max=hi)

    @pytest.mark.parametrize("c,lo,hi", ((5.0, np.nan, np.nan), (np.nan, 1.0, 1.0),
                                         (1.0, 1.0, np.inf), (1.0, 0.0, 1.0),
                                         (1.0, 2.0, 1.0), (2.0, 0.5, 1.0)))
    def test_bad_band_or_values_rejected(self, c, lo, hi):
        with pytest.raises(ValueError):
            self.constant(c, lo, hi).validate_on(self.grid)

    def test_values_inside_a_finite_band_pass(self):
        self.constant(1.0, 0.5, 2.0).validate_on(self.grid)
        self.constant(1.0, 1.0, 1.0).validate_on(self.grid)


class TestSegmentSelfCheck:
    """The finest table against its Gauss-Kronrod extension, |K17 - G8|."""

    def test_coarse_grid_fails(self, unit_diff):
        # measured against a 32-point Gauss rule, the 8-point table is off
        # by 1.2e-7 on this grid: above the 1e-8 quadrature tolerance
        with pytest.raises(QuadratureFailure, match="off by 1.20e-07"):
            compute_drift_potential(DriftSpec(beta=weier_beta), unit_diff,
                                    MollifierConfig(widths=_LADDER),
                                    np.linspace(-2.0, 2.0, 101))

    def test_finer_grid_passes(self, unit_diff):
        pot = compute_drift_potential(DriftSpec(beta=weier_beta), unit_diff,
                                      MollifierConfig(widths=_LADDER),
                                      np.linspace(-2.0, 2.0, 129))
        assert pot.converged


class TestTwoFinestLevels:
    grid = np.linspace(-2.0, 2.0, 129)

    def test_beta_evaluations_per_segment(self, unit_diff):
        # two widths at the 8 Gauss points plus the 9 Kronrod-only points of
        # the finer: 25 point sets per segment, each 2 x 48 mollifier nodes
        seen = []

        def counting_beta(x):
            seen.append(np.size(x))
            return weier_beta(x)

        compute_drift_potential(DriftSpec(beta=counting_beta), unit_diff,
                                MollifierConfig(widths=_LADDER), self.grid)
        assert sum(seen) == 96 * 25 * (len(self.grid) - 1)


def _holder_const_by_lags(grid, values, alpha):
    """The Hoelder constant over all pairs, one pass per lag (reference)."""
    const = 0.0
    for lag in range(1, len(grid)):
        gap = np.abs(values[lag:] - values[:-lag])
        sep = np.abs(grid[lag:] - grid[:-lag])
        const = max(const, float(np.max(gap / sep**alpha)))
    return const


class TestBlocks:
    """The convolutions, the Hoelder pairs and the inversion run in blocks
    of ``coefficients._CHUNK`` values, the convolutions on a thread pool;
    no number depends on the block size or the number of threads."""

    grid = np.linspace(-2.0, 2.0, 129)

    @pytest.mark.parametrize("chunk", (1, 97))
    def test_numbers_independent_of_block_size(self, unit_diff, tanh_coeffs,
                                                monkeypatch, chunk):
        from sdelab import coefficients
        from sdelab.coefficients import mollified_function
        drift, moll = DriftSpec(beta=weier_beta), MollifierConfig(widths=_LADDER)
        tr = tanh_coeffs.transform
        y = np.random.default_rng(8).uniform(*tr.image, (3, 700))

        def run():
            pot = compute_drift_potential(drift, unit_diff, moll, self.grid)
            x = tr.inverse(y)
            return (pot.values.tobytes(), pot.holder_const,
                    mollified_function(weier_beta, self.grid, 0.01).tobytes(),
                    [v.tobytes() for v in (x, *tr.forward_and_deriv(x))])
        whole = run()
        monkeypatch.setattr(coefficients, "_CHUNK", chunk)
        assert run() == whole

    @pytest.mark.parametrize("cpus", (1, 3))
    def test_numbers_independent_of_worker_count(self, unit_diff, monkeypatch, cpus):
        # one worker, and more workers than a 2-core box has: the blocks of
        # every convolution here outnumber both, so the pool is that wide;
        # a short switch interval interleaves the workers' row writes
        import sys
        from sdelab import coefficients
        from sdelab.coefficients import mollified_function
        drift, moll = DriftSpec(beta=weier_beta), MollifierConfig(widths=_LADDER)
        points = np.linspace(-2.0, 2.0, 1025)

        def run():
            pot = compute_drift_potential(drift, unit_diff, moll, self.grid)
            return (pot.values.tobytes(), pot.level_gap, pot.alpha, pot.holder_const,
                    pot.converged, mollified_function(weier_beta, points, 0.01).tobytes())
        whole = run()
        widths = []

        class Recorded(coefficients.ThreadPoolExecutor):
            def __init__(self, max_workers):
                widths.append(max_workers)
                super().__init__(max_workers)
        monkeypatch.setattr(coefficients, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(coefficients, "ThreadPoolExecutor", Recorded)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert run() == whole
        finally:
            sys.setswitchinterval(interval)
        assert max(widths) == cpus

    @pytest.mark.parametrize("shape", ((0,), (3, 0)), ids=("no_points", "empty_rows"))
    def test_empty_points_give_empty_values(self, shape):
        # rows without points used to divide the block size by zero
        from sdelab.coefficients import mollified_drift_derivative, mollified_function
        for fold in (mollified_function, mollified_drift_derivative):
            assert fold(np.sin, np.empty(shape), 0.01).shape == shape

    def test_usable_cpus_without_affinity(self, monkeypatch):
        from sdelab import coefficients
        monkeypatch.delattr(coefficients.os, "sched_getaffinity", raising=False)
        assert coefficients._usable_cpus() == (coefficients.os.cpu_count() or 1)

    def test_worker_error_reaches_the_caller(self, unit_diff):
        # beta runs in the pool's threads; its error surfaces as itself
        import threading
        threads = set()

        def failing_beta(x):
            threads.add(threading.current_thread().name)
            if np.max(x) > 1.0:
                raise ValueError("beta fails on this block")
            return weier_beta(x)

        with pytest.raises(ValueError, match="beta fails on this block"):
            compute_drift_potential(DriftSpec(beta=failing_beta), unit_diff,
                                    MollifierConfig(widths=_LADDER), self.grid)
        assert threading.current_thread().name not in threads

    def test_nan_block_fails_closed(self, unit_diff):
        # NaN from the blocks beyond x = 1.5 only
        nan_beta = lambda x: np.where(x > 1.5, np.nan, weier_beta(x))
        with pytest.raises(QuadratureFailure):
            compute_drift_potential(DriftSpec(beta=nan_beta), unit_diff,
                                    MollifierConfig(widths=_LADDER), self.grid)

    @pytest.mark.parametrize("chunk", (1, 97, None))
    def test_holder_constant_equals_the_loop_over_lags(self, weier_potential,
                                                       monkeypatch, chunk):
        from sdelab import coefficients
        if chunk:
            monkeypatch.setattr(coefficients, "_CHUNK", chunk)
        rng = np.random.default_rng(9)
        uneven = np.cumsum(rng.uniform(0.5, 1.5, 300))
        for grid, values in ((weier_potential.grid, weier_potential.values),
                             (uneven, np.cumsum(rng.standard_normal(300)))):
            alpha, const = coefficients._holder_fit(grid, values)
            assert const == _holder_const_by_lags(grid, values, alpha)

    def test_build_memory_grows_with_the_tables_only(self, unit_diff):
        # four times the cells may add a few (cells, 8) point arrays of 64
        # bytes per cell, not the cells x 8 x 48 point-node values (2-core
        # box: 1.1 -> 3.3 MB of tracemalloc peak from 1601 to 6401 nodes,
        # 28 -> 112 MB when the whole point-node array was built at once)
        import tracemalloc
        drift = DriftSpec(beta=lambda x: (np.sin(x) + 0.5 * np.sin(2.0 * x)
                                          + 0.25 * np.sin(4.0 * x)))
        moll = MollifierConfig(widths=(0.02, 0.01))
        peaks = []
        for n in (1601, 6401):
            tracemalloc.start()
            try:
                compute_drift_potential(drift, unit_diff, moll,
                                        np.linspace(-2.0, 2.0, n), strict=False)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 12 * 64 * (6401 - 1601), peaks


# ---------------------------------------------------------------------------
# scale transform
# ---------------------------------------------------------------------------

class TestShares:
    """``_shares`` deals the paths of a forked run in contiguous shares, one
    per worker."""

    @pytest.mark.parametrize("cpus", (1, 2, 3, 8))
    @pytest.mark.parametrize("n_paths", (1, 2, 5, 7, 100, 1001))
    def test_contiguous_cover_of_near_equal_sizes(self, cpus, n_paths, monkeypatch):
        from sdelab import coefficients
        monkeypatch.setattr(coefficients, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(coefficients, "_MIN_SHARE", 1)
        shares = coefficients._shares(n_paths, 9)
        # fewer paths than CPUs: one path per share
        assert len(shares) == min(cpus, n_paths)
        assert all(isinstance(s, range) and s.step == 1 for s in shares)
        assert [i for s in shares for i in s] == list(range(n_paths))
        sizes = [len(s) for s in shares]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1

    def test_min_share_boundary(self, monkeypatch):
        # a share holds at least _MIN_SHARE grid values (paths x times)
        from sdelab import coefficients
        monkeypatch.setattr(coefficients, "_usable_cpus", lambda: 4)
        m = coefficients._MIN_SHARE
        below = (2 * m - 1) // 65
        for n_paths, n_times, want in ((m - 1, 1, 1), (m, 1, 1), (2 * m - 1, 1, 1),
                                       (2 * m, 1, 2), (3 * m, 1, 3), (100 * m, 1, 4),
                                       (below, 65, 1), (below + 1, 65, 2), (1, 100 * m, 1)):
            shares = coefficients._shares(n_paths, n_times)
            assert len(shares) == want, (n_paths, n_times)
            assert shares[0].start == 0 and shares[-1].stop == n_paths


class TestScaleTransform:
    def test_zero_potential_gives_identity(self, flat_coeffs):
        tr = flat_coeffs.transform
        assert np.max(np.abs(tr.h_values - tr.grid)) < 1e-12
        assert np.max(np.abs(tr.hprime_values - 1.0)) < 1e-14

    def test_linear_potential_closed_form(self, linear_coeffs):
        # oracle: int_0^x exp(-0.6 y) dy = (1 - exp(-0.6 x)) / 0.6
        tr = linear_coeffs.transform
        exact = (1.0 - np.exp(-0.6 * tr.grid)) / 0.6
        assert np.max(np.abs(tr.h_values - exact)) < 1e-6

    def test_anchors_exact(self, linear_coeffs, tanh_coeffs):
        for tr in (linear_coeffs.transform, tanh_coeffs.transform):
            assert float(tr.forward(np.asarray(0.0))) == 0.0
            assert float(tr.deriv(np.asarray(0.0))) == 1.0

    def test_derivative_table_matches_potential_exactly(self, tanh_coeffs):
        tr = tanh_coeffs.transform
        pot = tanh_coeffs.potential
        assert np.max(np.abs(tr.hprime_values - np.exp(-pot.values))) == 0.0

    def test_strictly_increasing_and_invertible(self, tanh_coeffs):
        tr = tanh_coeffs.transform
        assert np.all(np.diff(tr.h_values) > 0)
        lo, hi = tr.image
        yq = np.linspace(lo, hi, 2001)
        assert np.max(np.abs(tr.forward(tr.inverse(yq)) - yq)) < 1e-6

    def test_inverse_out_of_image_raises(self, linear_coeffs):
        tr = linear_coeffs.transform
        with pytest.raises(RangeError):
            tr.inverse(tr.image[1] + 1.0)

    def test_forward_out_of_domain_raises(self, linear_coeffs):
        with pytest.raises(RangeError):
            linear_coeffs.transform.forward(np.asarray(10.0))

    def test_unconverged_potential_refused(self, unit_diff):
        grid = np.linspace(-2.0, 2.0, 201)
        moll = MollifierConfig(widths=(0.2, 0.1), convergence_tol=1e-10)
        pot = compute_drift_potential(DriftSpec(beta=weier_beta), unit_diff, moll,
                                      grid, strict=False)
        with pytest.raises(NonConvergent):
            build_scale_transform(pot)


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-0.4, 0.4), b=st.floats(-0.3, 0.3), c=st.floats(0.5, 3.0))
def test_transform_monotone_for_random_smooth_drifts(a, b, c):
    grid = np.linspace(-3.0, 3.0, 301)
    drift = DriftSpec(beta=lambda x, a=a, b=b, c=c: a * np.asarray(x, dtype=float)
                      + b * np.sin(c * np.asarray(x, dtype=float)))
    diff = DiffusionSpec(sigma=unit_sigma, sigma_min=1.0, sigma_max=1.0)
    # smoothing widths sized for the frequency range of the strategy
    moll = MollifierConfig(widths=(0.005, 0.0025))
    coeffs = CoefficientSet.build(drift, diff, moll, grid)
    tr = coeffs.transform
    assert np.all(np.diff(tr.h_values) > 0)
    assert float(tr.forward(np.asarray(0.0))) == 0.0
    assert float(tr.deriv(np.asarray(0.0))) == 1.0
    lo, hi = tr.image
    yq = np.linspace(lo, hi, 101)
    assert np.max(np.abs(tr.forward(tr.inverse(yq)) - yq)) < 1e-6


# ---------------------------------------------------------------------------
# the cubic table and the cell-local inverse, bit for bit against scipy
# ---------------------------------------------------------------------------

def _probe_points(nodes, rng):
    """Random points over and beyond the nodes, the nodes themselves, the
    last node again and the neighbours of each node."""
    lo, hi = nodes[0], nodes[-1]
    width = hi - lo
    return np.concatenate([rng.uniform(lo - 0.2 * width, hi + 0.2 * width, 200_000),
                           nodes, [hi, lo - 1e3, hi + 1e3],
                           np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf)])


class TestCubicTable:
    def test_values_equal_scipy_on_uniform_and_value_grids(self, tanh_coeffs):
        from scipy.interpolate import PchipInterpolator

        from sdelab.coefficients import CubicTable
        tr = tanh_coeffs.transform
        rng = np.random.default_rng(3)
        for x, y in ((tr.grid, tr.h_values), (tr.grid, tr.hprime_values),
                     (tr.h_values, tr.grid)):
            pts = _probe_points(x, rng)
            assert np.array_equal(CubicTable(x, y)(pts), PchipInterpolator(x, y)(pts))

    def test_uniform_cell_index_equals_scipy_search(self, tanh_coeffs):
        from sdelab.coefficients import CubicTable
        x = tanh_coeffs.transform.grid
        table = CubicTable(x, np.sin(x))
        pts = _probe_points(x, np.random.default_rng(4))
        want = np.clip(np.searchsorted(x, pts, side="right") - 1, 0, len(x) - 2)
        assert np.array_equal(table.cell(pts), want)

    def test_three_column_table_equals_scipy_axis_1(self):
        from scipy.interpolate import PchipInterpolator

        from sdelab.coefficients import CubicTable
        x = np.linspace(-2.0, 3.0, 257)
        y = np.stack([np.tanh(x), np.exp(-x * x), np.abs(x) ** 1.5])
        pts = _probe_points(x, np.random.default_rng(5))[:-2].reshape(-1, 3)
        got = CubicTable(x, y)(pts)
        assert got.shape == (3,) + pts.shape
        assert np.array_equal(got, PchipInterpolator(x, y, axis=1)(pts))

    def test_negative_zero_node_value_evaluates_as_scipy(self):
        from scipy.interpolate import PchipInterpolator

        from sdelab.coefficients import CubicTable
        # PPoly's sum starts at +0.0, so this cell gives +0.0 at its left node
        x = np.linspace(0.0, 4.0, 5)
        y = np.array([0.82, 0.51, -0.0, -0.59, -1.32])  # c0, c1, c2 of cell 2 < 0
        got, want = CubicTable(x, y)(x), PchipInterpolator(x, y)(x)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_scalar_point_gives_zero_d_array(self):
        from scipy.interpolate import PchipInterpolator

        from sdelab.coefficients import CubicTable
        x = np.linspace(0.0, 1.0, 11)
        got = CubicTable(x, x**3)(0.37)
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert got == PchipInterpolator(x, x**3)(0.37)


def _scipy_coefficients(x, y):
    """scipy's PCHIP coefficients of the table, laid out as (power, column,
    cell) like ``CubicTable._c``."""
    from scipy.interpolate import PchipInterpolator
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c = PchipInterpolator(x, y, axis=y.ndim - 1).c
    return c.reshape(4, len(x) - 1, -1).transpose(0, 2, 1)


def _end_rule_branches(h0, h1, m0, m1):
    """Which branch of the one-sided end rule a table end takes: the
    estimate's sign differs from m0 (set to 0), or the slopes change sign
    and the estimate exceeds 3 |m0| (set to 3 m0)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    mask = np.sign(d) != np.sign(m0)
    return bool(mask), bool(~mask & (np.sign(m0) != np.sign(m1)) & (abs(d) > 3 * abs(m0)))


class TestPchipCoefficients:
    """``CubicTable``'s own PCHIP coefficients equal scipy's bit for bit."""

    @staticmethod
    def _check(x, y):
        from sdelab.coefficients import CubicTable
        x = np.asarray(x, dtype=float)
        got, want = CubicTable(x, y)._c, _scipy_coefficients(x, y)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("y", ([1.0, 3.0], [2.0, 2.0], [0.5, -0.0],
                                   [[1.0, -2.0], [0.0, 7.5], [3.0, 3.0]]))
    def test_two_nodes(self, y):
        self._check([-0.3, 1.7], y)

    def test_flat_runs_and_zero_slopes(self):
        x = np.linspace(0.0, 3.0, 13)
        self._check(x, [0, 0, 0, 1, 1, 1, 1, 2, 3, 3, 3, 5, 5])
        self._check(x, np.zeros(13))
        self._check(x, np.full(13, -4.25))

    def test_slope_sign_changes(self):
        x = np.linspace(-1.0, 1.0, 41)
        self._check(x, np.sin(7.0 * x))
        self._check(x, np.abs(x))
        self._check(x, (-1.0) ** np.arange(41))

    @pytest.mark.parametrize("x, y, left, right", [
        ([0, 1, 2, 3, 4], [0, 1, 5, 10, 10.5], "mask", "mask"),
        ([0, 1, 11, 12, 13], [0, 1, -299, -300, -301], "mmm", None),
        ([0, 1, 2, 12, 13], [5, 4, 3, -297, -296], None, "mmm"),
        ([0, 1, 11], [0, 3, 13], None, "mask"),
        ([0, 1, 11], [0, 1, -299], "mmm", None),
    ])
    def test_both_end_rule_branches(self, x, y, left, right):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        h, m = np.diff(x), np.diff(y) / np.diff(x)
        for ends, want in (((h[0], h[1], m[0], m[1]), left),
                           ((h[-1], h[-2], m[-1], m[-2]), right)):
            mask, mmm = _end_rule_branches(*ends)
            assert (mask, mmm) == (want == "mask", want == "mmm")
        self._check(x, y)

    def test_negative_zero_values(self):
        x = np.linspace(0.0, 4.0, 5)
        self._check(x, [0.82, 0.51, -0.0, -0.59, -1.32])
        self._check(x, [-0.0, -0.0, 0.0, -0.0, 1.0])
        self._check(x, np.full(5, -0.0))

    def test_three_columns_on_nonuniform_nodes(self):
        rng = np.random.default_rng(11)
        x = np.cumsum(rng.uniform(0.01, 1.0, 64))
        self._check(x, np.stack([np.tanh(x - 10.0), np.exp(-x), rng.normal(size=64)]))
        self._check(x, rng.normal(size=(2, 3, 64)))

    def test_near_flat_segments_overflow_the_harmonic_mean(self):
        x = np.arange(6.0)
        y = np.array([0.0, 1e-310, 2e-310, 3e-310, 1.0, 2.0])
        with np.errstate(over="ignore"):
            assert np.isinf(3.0 / np.diff(y)[0])  # w1 / m_k overflows
        self._check(x, y)
        self._check(x, -y)
        self._check(np.linspace(0.0, 1e-3, 6), [1.0, 1.0, 1.0 + 2e-16, 1.0 + 4e-16, 2.0, 3.0])

    @pytest.mark.parametrize("name", scenario_names())
    def test_every_table_of_a_registry_run(self, name, monkeypatch):
        from sdelab import ScenarioSpec, run_scenario
        from sdelab.coefficients import CubicTable
        made, init = [], CubicTable.__init__

        def recording_init(self, x, y):
            init(self, x, y)
            made.append((np.array(x, dtype=float), np.array(y, dtype=float), self._c))

        monkeypatch.setattr(CubicTable, "__init__", recording_init)
        run_scenario(ScenarioSpec(name=name))
        assert made
        for x, y, c in made:
            assert np.array_equal(c, _scipy_coefficients(x, y))

    @pytest.mark.parametrize("x, y", [
        ([0.0], [1.0]),                                  # fewer than 2 nodes
        ([[0.0, 1.0]], [1.0, 2.0]),                      # nodes not 1-d
        ([0.0, np.nan, 2.0], [1.0, 2.0, 3.0]),           # non-finite node
        ([0.0, 1.0, np.inf], [1.0, 2.0, 3.0]),
        ([0.0, 2.0, 1.0], [1.0, 2.0, 3.0]),              # non-increasing nodes
        ([0.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
        ([0.0, 1.0, 2.0], [1.0, np.nan, 3.0]),           # non-finite value
        ([0.0, 1.0, 2.0], [1.0, 2.0, -np.inf]),
        ([0.0, 1.0, 2.0], [1.0, 2.0]),                   # length mismatch
        ([0.0, 1.0, 2.0], [[1.0, 2.0, 3.0, 4.0]]),
        ([0.0, 1e-10, 2e-10], [0.0, 1e308, -1e308]),    # slopes overflow
    ])
    def test_rejects_what_scipy_rejects(self, x, y):
        from scipy.interpolate import PchipInterpolator

        from sdelab.coefficients import CubicTable
        y = np.asarray(y, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
            PchipInterpolator(x, y, axis=y.ndim - 1)
        with pytest.raises(ValueError):
            CubicTable(x, y)


def _scipy_inverse(tr, y, newton_iters=3, bisect_iters=30):
    """Inversion through scipy interpolants, each call with its own search."""
    from scipy.interpolate import PchipInterpolator
    h = PchipInterpolator(tr.grid, tr.h_values)
    hp = PchipInterpolator(tr.grid, tr.hprime_values)
    yq = np.atleast_1d(np.asarray(y, dtype=float)).ravel()
    idx = np.clip(np.searchsorted(tr.h_values, yq) - 1, 0, len(tr.grid) - 2)
    lo, hi = tr.grid[idx], tr.grid[idx + 1]
    x = np.clip(PchipInterpolator(tr.h_values, tr.grid)(yq), lo, hi)
    for _ in range(newton_iters):
        x = np.clip(x - (h(x) - yq) / np.maximum(hp(x), 1e-300), lo, hi)
    bad = np.flatnonzero(np.abs(h(x) - yq) > 1e-10 * (1.0 + np.abs(yq)))
    blo, bhi, yb = lo[bad], hi[bad], yq[bad]
    for _ in range(bisect_iters):
        mid = 0.5 * (blo + bhi)
        below = h(mid) < yb
        blo, bhi = np.where(below, mid, blo), np.where(below, bhi, mid)
    xb = 0.5 * (blo + bhi)
    x[bad] = np.clip(xb - (h(xb) - yb) / np.maximum(hp(xb), 1e-300), blo, bhi)
    return x.reshape(np.shape(y)), len(bad)


class TestCellLocalInverse:
    def _check(self, tr, y, **kw):
        x = tr.inverse(y)
        want, n_bisected = _scipy_inverse(tr, y, **kw)
        assert np.array_equal(x, want)
        return n_bisected

    def test_longer_than_one_chunk(self, tanh_coeffs):
        from sdelab.coefficients import _CHUNK
        tr = tanh_coeffs.transform
        lo, hi = tr.image
        y = np.random.default_rng(6).uniform(lo, hi, (3, _CHUNK // 2 + 5))
        y[0, :len(tr.h_values)] = tr.h_values   # node values and both ends
        self._check(tr, y)

    def test_bisection_fallback(self, tanh_coeffs, monkeypatch):
        from sdelab import coefficients
        monkeypatch.setattr(coefficients, "_NEWTON_ITERS", 0)
        tr = tanh_coeffs.transform
        lo, hi = tr.image
        y = np.concatenate([np.random.default_rng(7).uniform(lo, hi, 5000),
                            tr.h_values])
        assert self._check(tr, y, newton_iters=0) > 1000

    def test_scalar(self, tanh_coeffs):
        tr = tanh_coeffs.transform
        x = tr.inverse(0.3)
        assert isinstance(x, float)
        assert x == float(_scipy_inverse(tr, 0.3)[0])


def _uneven_transform():
    """A transform on a non-uniform grid, whose cells one ``searchsorted``
    finds (a uniform grid's are a direct index)."""
    grid = np.sort(np.concatenate([[-2.0, 0.0, 2.0],
                                   np.random.default_rng(4).uniform(-2.0, 2.0, 40)]))
    hp = np.exp(-np.sin(3.0 * grid))
    h = np.concatenate([[0.0], np.cumsum(0.5 * (hp[1:] + hp[:-1]) * np.diff(grid))])
    return ScaleTransform(grid=grid, h_values=h - np.interp(0.0, grid, h),
                          hprime_values=hp)


class TestForwardAndDeriv:
    """``forward_and_deriv`` finds each point's cell once for both tables,
    and gives ``(forward(x), deriv(x))`` bit for bit."""

    @pytest.fixture(params=("uniform", "uneven"))
    def tr(self, request, tanh_coeffs):
        return tanh_coeffs.transform if request.param == "uniform" else _uneven_transform()

    def _check(self, tr, x):
        hx, hpx = tr.forward_and_deriv(x)
        for got, want in ((hx, tr.forward(x)), (hpx, tr.deriv(x))):
            assert got.shape == want.shape == np.shape(x)
            assert np.array_equal(got, want)

    def test_random_points_over_more_than_one_chunk(self, tr):
        from sdelab.coefficients import _CHUNK
        self._check(tr, np.random.default_rng(9).uniform(*tr.domain, (3, _CHUNK // 2 + 5)))

    def test_every_node_and_both_ends(self, tr):
        # a cell's right end node belongs to the next cell; the ends admit
        # the domain check's slack of 1e-12
        lo, hi = tr.domain
        self._check(tr, tr.grid)
        self._check(tr, np.array([lo, hi, lo - 5e-13, hi + 5e-13]))

    def test_scalar(self, tr):
        hx, hpx = tr.forward_and_deriv(0.3)
        assert hx.ndim == hpx.ndim == 0
        assert hx == tr.forward(0.3) and hpx == tr.deriv(0.3)

    @pytest.mark.parametrize("side", (0, 1))
    def test_outside_the_domain_raises(self, tr, side):
        outside = tr.domain[side] + (-1e-9, 1e-9)[side]
        with pytest.raises(RangeError):
            tr.forward_and_deriv(np.array([0.0, outside]))

    def test_identity(self):
        x = np.linspace(-3.0, 3.0, 7)
        hx, hpx = ScaleTransform.identity().forward_and_deriv(x)
        assert np.array_equal(hx, x) and np.array_equal(hpx, np.ones(7))


@pytest.fixture(scope="module", params=("weierstrass_drift", "smooth_drift_crosscheck"))
def dense_transform(request):
    """The transform of a registry scenario whose value table's cells are
    far from even: their widths span 2158x and 14589x."""
    from sdelab.scenarios import ScenarioSpec, build_bundle
    return build_bundle(ScenarioSpec(name=request.param)).eq.coeffs.transform


class TestCellIndex:
    """``CubicTable.cell`` is a direct index with an exact correction: it
    gives every point the cell of ``np.searchsorted``, on uniform nodes and
    on uneven ones, where the inverse finds its bracket through it."""

    def _check(self, x, rng):
        from sdelab.coefficients import CubicTable
        table = CubicTable(x, np.arange(len(x), dtype=float))
        pts = np.concatenate([_probe_points(x, rng), [-np.inf, np.inf]])
        want = np.searchsorted(x[1:-1], pts, side="right")
        assert np.array_equal(table.cell(pts), want)
        return table

    def test_uniform_and_uneven_nodes(self, tanh_coeffs):
        rng = np.random.default_rng(11)
        tr = tanh_coeffs.transform
        for x in (tr.grid, tr.h_values, _uneven_transform().grid):
            self._check(x, rng)

    def test_two_node_table(self):
        self._check(np.array([-1.0, 2.5]), np.random.default_rng(12))

    def test_dense_value_table(self, dense_transform):
        h = dense_transform.h_values
        widths = np.diff(h)
        assert widths.max() / widths.min() > 2000
        table = self._check(h, np.random.default_rng(13))
        assert len(table._search) > 1  # a bin holds more than one node

    def test_inverse_equals_the_searchsorted_route(self, dense_transform):
        # the inverse through the cell index against the scipy route, which
        # brackets with np.searchsorted(h_values, y): every node value, its
        # neighbours, random points and both image ends
        tr = dense_transform
        h = tr.h_values
        y = np.concatenate([h, np.nextafter(h, -np.inf)[1:], np.nextafter(h, np.inf)[:-1],
                            np.random.default_rng(14).uniform(*tr.image, 20_000),
                            [tr.image[0] - 5e-13, tr.image[1] + 5e-13]])
        assert np.array_equal(tr.inverse(y), _scipy_inverse(tr, y)[0])


# ---------------------------------------------------------------------------
# conjugated generator pieces
# ---------------------------------------------------------------------------

def quad_profile():
    return ConjugateTestFunction(lambda y: np.asarray(y, dtype=float) ** 2,
                                 lambda y: 2.0 * np.asarray(y, dtype=float),
                                 lambda y: np.full_like(np.asarray(y, dtype=float), 2.0),
                                 bound=100.0, name="square")


class TestLocalGenerator:
    def test_identity_profile_is_annihilated(self, linear_coeffs, tanh_coeffs):
        # the transform itself solves the equation: its generator value is 0
        probe = np.linspace(-2.0, 2.0, 1000)
        for coeffs in (linear_coeffs, tanh_coeffs):
            vals = local_generator(identity_profile(), coeffs.transform,
                                   coeffs.diffusion, probe)
            assert np.max(np.abs(vals)) == 0.0

    def test_flat_case_half_second_derivative(self, flat_coeffs):
        vals = local_generator(quad_profile(), flat_coeffs.transform,
                               flat_coeffs.diffusion, np.linspace(-2, 2, 41))
        assert np.max(np.abs(vals - 1.0)) < 1e-12

    def test_linear_potential_oracle(self, linear_coeffs):
        # oracle: (sigma h')(x)^2 = exp(-1.2 x), half times phi'' = 2 cancels
        x = np.linspace(-2.0, 2.0, 101)
        vals = local_generator(quad_profile(), linear_coeffs.transform,
                               linear_coeffs.diffusion, x)
        assert np.max(np.abs(vals - np.exp(-1.2 * x))) < 1e-6


class TestTransformedDiffusion:
    def test_identity(self, flat_coeffs):
        y = np.linspace(-2, 2, 21)
        vals = transformed_diffusion(flat_coeffs.transform, flat_coeffs.diffusion, y)
        assert np.max(np.abs(vals - 1.0)) < 1e-9

    def test_composition_oracle(self, linear_coeffs):
        tr = linear_coeffs.transform
        y1 = float(tr.forward(np.asarray(1.0)))
        val = float(transformed_diffusion(tr, linear_coeffs.diffusion, y1))
        assert abs(val - np.exp(-0.6)) < 1e-8

    def test_origin_pins_sigma(self, tanh_coeffs):
        val = float(transformed_diffusion(tanh_coeffs.transform,
                                          tanh_coeffs.diffusion, 0.0))
        assert abs(val - 1.0) < 1e-12


class TestSquareIdentity:
    def test_identity_profile_certifies_carre_du_champ(self, tanh_coeffs):
        pts = np.linspace(-3.0, 3.0, 201)
        res = square_identity_residual(identity_profile(), tanh_coeffs.transform,
                                       tanh_coeffs.diffusion, pts)
        assert res < 1e-6

    def test_sin_flat_case(self, flat_coeffs):
        prof = ConjugateTestFunction(np.sin, np.cos, lambda y: -np.sin(y), 1.0)
        pts = np.linspace(-3.0, 3.0, 201)
        assert square_identity_residual(prof, flat_coeffs.transform,
                                        flat_coeffs.diffusion, pts) < 1e-8

    def test_constant_profile_vanishes(self, linear_coeffs):
        prof = ConjugateTestFunction(
            lambda y: np.full_like(np.asarray(y, dtype=float), 2.0),
            lambda y: np.zeros_like(np.asarray(y, dtype=float)),
            lambda y: np.zeros_like(np.asarray(y, dtype=float)), 2.0)
        pts = np.linspace(-2.0, 2.0, 51)
        assert square_identity_residual(prof, linear_coeffs.transform,
                                        linear_coeffs.diffusion, pts) == 0.0

    def test_five_profiles_below_tolerance(self, linear_coeffs, tanh_coeffs):
        from sdelab import standard_profiles
        pts = np.linspace(-2.0, 2.0, 101)
        for coeffs in (linear_coeffs, tanh_coeffs):
            for prof in standard_profiles():
                assert square_identity_residual(prof, coeffs.transform,
                                                coeffs.diffusion, pts) < 1e-6


# ---------------------------------------------------------------------------
# approximants of C1 targets inside the operator domain
# ---------------------------------------------------------------------------

def ident(x):
    return np.asarray(x, dtype=float)


def ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


class TestDomainApproximant:
    def test_flat_case_derivative_is_one_inside_plateau(self, flat_coeffs):
        ap = domain_approximant(ident, ones, flat_coeffs.transform, n=4)
        x = np.linspace(-2.0, 2.0, 101)
        assert np.max(np.abs(ap.f_prime(x) - 1.0)) < 1e-9

    def test_zero_target_stays_zero(self, linear_coeffs):
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        ap = domain_approximant(zero, zero, linear_coeffs.transform, n=3)
        x = np.linspace(-2.0, 2.0, 101)
        assert np.max(np.abs(ap.f(x))) < 1e-14
        assert np.max(np.abs(ap.f_prime(x))) < 1e-14

    def test_linear_potential_levels_improve(self, linear_coeffs):
        x = np.linspace(-1.5, 1.5, 101)
        errs = []
        for n in (2, 4):
            ap = domain_approximant(ident, ones, linear_coeffs.transform, n=n)
            errs.append(np.max(np.abs(ap.f_prime(x) - 1.0)))
        assert errs[1] < errs[0]

    def test_generator_value_recovers_classical_drift(self, linear_coeffs):
        # for a classical drift the approximant generator tends to beta'
        ap = domain_approximant(ident, ones, linear_coeffs.transform, n=4)
        x = np.linspace(-1.0, 1.0, 41)
        vals = ap.generator_value(linear_coeffs.diffusion, x)
        assert np.max(np.abs(vals - 0.3)) < 0.05

    def test_derivative_has_compact_support(self, flat_coeffs):
        n = 2
        ap = domain_approximant(ident, ones, flat_coeffs.transform, n=n)
        # cutoff dies at |x| = n + 1, smeared by the smoothing width 1/n
        far = np.asarray([n + 1 + 1.0 / n + 0.1, -(n + 1 + 1.0 / n + 0.1)])
        assert np.max(np.abs(ap.f_prime(far))) == 0.0


# ---------------------------------------------------------------------------
# hypothesis report
# ---------------------------------------------------------------------------

class TestCheckHypotheses:
    def test_flat_potential_grows_linearly(self, flat_coeffs):
        rep = check_hypotheses(flat_coeffs.potential)
        assert rep.sup_norm < 1e-12
        assert rep.sup_saturating
        assert np.max(np.abs(rep.divergence_pos - rep.divergence_levels)) < 1e-6
        assert rep.slope_lower > 0.99

    def test_bounded_potential_slope_bound(self, tanh_coeffs):
        # oracle: int_0^M exp(-S) >= M exp(-sup |S|)
        rep = check_hypotheses(tanh_coeffs.potential)
        assert rep.slope_lower >= np.exp(-rep.sup_norm) - 1e-9
        assert rep.sup_saturating

    def test_unbounded_potential_flagged(self, linear_coeffs):
        rep = check_hypotheses(linear_coeffs.potential)
        assert not rep.sup_saturating
        assert rep.sup_norm > 1.0
