"""Regularization QV estimator, chain rule, integrability diagnostics."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab import (CharacteristicsY, DiscreteLaw, EquationX,
                    FiniteActivityKernel, GridMismatch, IntegrabilityGrowthTable,
                    MissingDriverRecord, SimConfig, StableTailKernel,
                    big_jump_sums, classify_dirichlet,
                    dirichlet_condition_intY, gamma_residual_qv, qv_sweep,
                    engine_setup, simulate_x_markovian, simulate_y)

from reference import chain_rule_qv, covariation, row_jumps

STEP_JUMPS = ((0.5,), (0.0,), (1.0,))  # the step path's jump: time, pre-jump value, size


def step_path(n=11):
    """Deterministic unit step at t = 0.5 on [0, 1]: times and values."""
    times = np.linspace(0.0, 1.0, n)
    return times, np.where(times >= 0.5, 1.0, 0.0)


def qv(times, values, epsilon, t):
    """The estimate at one window."""
    return qv_sweep(times, values, (epsilon,), t)[0]


def brownian_paths(n_paths=100, n_steps=4096, seed=21):
    cfg = SimConfig(horizon=1.0, n_steps=n_steps, n_paths=n_paths,
                    master_seed=seed, big_jump_intensity_bound=0.0)
    chars = CharacteristicsY(
        b=lambda y: np.zeros_like(y),
        sigma0=lambda y: np.ones_like(np.asarray(y, dtype=float)))
    return simulate_y(engine_setup(chars, cfg, 0.0))


# ---------------------------------------------------------------------------
# the regularization estimator
# ---------------------------------------------------------------------------

class TestQVRegularization:
    def test_constant_path_zero(self):
        times = np.linspace(0, 1, 11)
        assert qv(times, np.full(11, 2.0), 0.1, 1.0) == 0.0

    def test_step_path_exact_unit(self):
        # one window of length eps catches the unit jump: eps * 1 / eps = 1
        assert abs(qv(*step_path(), 0.1, 1.0) - 1.0) < 1e-12

    def test_brownian_ladder_approaches_horizon(self):
        # dyadic ladder on the dyadic grid (windows must be grid multiples)
        ens = brownian_paths()
        eps = (0.125, 0.0625, 0.03125, 0.015625)
        means = np.mean(qv_sweep(ens.times, ens.x, eps, 1.0), axis=-1)
        assert abs(means[-1] - 1.0) < 0.05
        # bias shrinks with the window: |mean - (1 - eps/2)| stays small
        for e, m in zip(eps, means):
            assert abs(m - (1.0 - e / 2.0)) < 0.05

    def test_misaligned_epsilon_rejected(self):
        with pytest.raises(GridMismatch):
            qv(*step_path(), 0.13, 1.0)

    def test_epsilon_not_below_t_rejected(self):
        with pytest.raises(GridMismatch):
            qv(*step_path(), 0.5, 0.3)

    def test_values_off_the_grid_rejected(self):
        times, values = step_path()
        with pytest.raises(GridMismatch):
            qv(times, values[:-1], 0.1, 1.0)
        with pytest.raises(GridMismatch):
            qv(times, values, 0.1, 0.95)

    def test_rows_equal_their_own_sweep(self):
        # every window of every row of a path array, bit for bit, on paths
        # with power-tail jumps
        ens, _ = _stable_ensemble(1.5, n_paths=40, seed=47)
        eps = (0.0625, 0.25, 0.125, 0.03125)
        sweep = qv_sweep(ens.times, ens.x, eps, 1.0)
        assert sweep.shape == (4, 40)
        for i, row in enumerate(ens.x):
            assert np.array_equal(sweep[:, i], qv_sweep(ens.times, row, eps, 1.0))
        # windows in descending order
        assert np.array_equal(sweep[0], qv_sweep(ens.times, ens.x, (0.25,), 1.0)[0])


@settings(max_examples=40, deadline=None)
@given(vals=st.lists(st.floats(-5, 5), min_size=9, max_size=33),
       shift=st.floats(-10, 10), scale=st.floats(-3, 3))
def test_qv_shift_invariance_and_quadratic_scaling(vals, shift, scale):
    n = len(vals)
    times = np.linspace(0.0, 1.0, n)
    base = np.asarray(vals, dtype=float)
    dt = times[1] - times[0]
    eps = 2 * dt
    t = float(times[-1])
    v0 = qv(times, base, eps, t)
    assert qv(times, base + shift, eps, t) == pytest.approx(v0, abs=1e-9, rel=1e-9)
    assert qv(times, scale * base, eps, t) == pytest.approx(scale**2 * v0,
                                                            abs=1e-9, rel=1e-9)


# ---------------------------------------------------------------------------
# covariation
# ---------------------------------------------------------------------------

class TestCovariation:
    def test_self_covariation_equals_qv(self):
        ens = brownian_paths(n_paths=3, n_steps=512, seed=5)
        v = ens.x[0]
        assert covariation(ens.times, v, v, 0.125, 1.0) == pytest.approx(
            qv(ens.times, v, 0.125, 1.0), rel=1e-12)

    def test_bilinearity_exact(self):
        ens = brownian_paths(n_paths=3, n_steps=512, seed=6)
        v = ens.x[0]
        assert covariation(ens.times, v, 2.0 * v, 0.125, 1.0) == pytest.approx(
            2.0 * qv(ens.times, v, 0.125, 1.0), rel=1e-12)

    def test_independent_brownians_near_zero(self):
        ens = brownian_paths(n_paths=40, n_steps=1024, seed=7)
        vals = [covariation(ens.times, ens.x[2 * i], ens.x[2 * i + 1], 0.03125, 1.0)
                for i in range(20)]
        se = np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert abs(np.mean(vals)) < 3.5 * se

    def test_polarization_identity_exact(self):
        # quarter of [sum] - [difference] equals the direct cross sum
        rng = np.random.default_rng(8)
        times = np.linspace(0, 1, 65)
        a = np.cumsum(rng.standard_normal(65)) * 0.1
        b = np.cumsum(rng.standard_normal(65)) * 0.1
        dt = times[1] - times[0]
        m = 4
        eps = m * dt
        idx = 64
        i = np.arange(idx)
        j = np.minimum(i + m, idx)
        cross = np.sum((a[j] - a[i]) * (b[j] - b[i])) * dt / eps
        assert covariation(times, a, b, eps, 1.0) == pytest.approx(cross, rel=1e-12)


# ---------------------------------------------------------------------------
# chain rule
# ---------------------------------------------------------------------------

class TestChainRule:
    def test_identity_map_definitional(self):
        cmp_ = chain_rule_qv(lambda x: np.asarray(x, dtype=float),
                             lambda x: np.ones_like(np.asarray(x, dtype=float)),
                             *step_path(n=21), STEP_JUMPS, (0.1,), 1.0)
        assert cmp_.predicted == pytest.approx(cmp_.finest_estimate, abs=1e-12)

    def test_square_map_on_step_path_exact(self):
        # image jump from 0 to 1 has size 1; both routes give exactly 1
        cmp_ = chain_rule_qv(lambda x: np.asarray(x, dtype=float) ** 2,
                             lambda x: 2.0 * np.asarray(x, dtype=float),
                             *step_path(n=21), STEP_JUMPS, (0.1,), 1.0)
        assert abs(cmp_.predicted - 1.0) < 1e-12
        assert abs(cmp_.finest_estimate - 1.0) < 1e-12

    def test_brownian_plus_jump_ensemble_agreement(self):
        cfg = SimConfig(horizon=1.0, n_steps=2048, n_paths=100, master_seed=31,
                        small_jump_cutoff=0.25, big_jump_intensity_bound=1.2)
        chars = CharacteristicsY(
            b=lambda y: np.zeros_like(y),
            sigma0=lambda y: np.ones_like(np.asarray(y, dtype=float)),
            measure=FiniteActivityKernel(rate=1.0, law=DiscreteLaw(((0.5, 1.0),))))
        ens = simulate_y(engine_setup(chars, cfg, 0.0))
        pred, est = [], []
        for i in range(ens.n_paths):
            c = chain_rule_qv(np.sin, np.cos, ens.times, ens.x[i], row_jumps(ens, i),
                              (0.125, 0.0625, 0.03125, 0.015625), 1.0)
            pred.append(c.predicted)
            est.append(c.finest_estimate)
        rel = abs(np.mean(pred) - np.mean(est)) / np.mean(pred)
        assert rel < 0.05


# ---------------------------------------------------------------------------
# integrability growth tables
# ---------------------------------------------------------------------------

def _stable_ensemble(gamma, n_paths=2000, seed=33):
    import sdelab as sl
    coeffs = sl.CoefficientSet.unit()
    kernel = StableTailKernel(gamma=gamma, scale=0.5, alpha=min(1.0, gamma / 2))
    delta = 0.05 if gamma < 1 else 0.1
    lam = 2.0 * float(kernel.one_tail_mass(delta))
    mode = "drop" if gamma < 1 else "gaussian_match"
    cfg = SimConfig(horizon=1.0, n_steps=64, n_paths=n_paths, master_seed=seed,
                    small_jump_cutoff=delta, small_jump_mode=mode,
                    big_jump_intensity_bound=lam * 1.02)
    return simulate_x_markovian(EquationX(coeffs, kernel), cfg, 0.0), kernel


def ident(x):
    return np.asarray(x, dtype=float)


CAPS = (10.0, 100.0)


def growth(ens, sample_sizes):
    """The growth table of ``ens`` at threshold 1 and the caps ``CAPS``."""
    return dirichlet_condition_intY(big_jump_sums(ident, ens, 1.0, CAPS), ens.active,
                                    a=1.0, sample_sizes=sample_sizes, caps=CAPS)


class TestIntegrabilityGrowth:
    def test_no_jumps_zero_table(self):
        ens = brownian_paths(n_paths=50, n_steps=128, seed=3)
        tab = growth(ens, (10, 50))
        assert np.all(tab.means == 0.0) and np.all(tab.capped_means == 0.0)

    def test_light_tail_stabilizes_near_oracle(self):
        # oracle: T * int_{|x|>1} |x| * 0.5 |x|^(-2.5) dx = 2 * 0.5 * 2 = 2
        # the capped means plateau: their oracles 2(1 - M^(-1/2)) grow 1.32-fold
        ens, _ = _stable_ensemble(1.5)
        tab = growth(ens, (100, 500, 2000))
        assert tab.capped_means[-1] < 1.5 * tab.capped_means[0]
        assert 0.5 * 2.0 < tab.means[-1] < 2.0 * 2.0

    def test_heavy_tail_diverges(self):
        # the capped means track their oracles 2(sqrt(M) - 1), 4.2-fold apart
        ens, _ = _stable_ensemble(0.5)
        tab = growth(ens, (100, 500, 2000))
        assert tab.capped_means[-1] > 2.0 * tab.capped_means[0]

    def test_capped_columns_match_tail_integral(self):
        # truncated oracle: T * 2 * scale * int_1^M x^(-1/2) dx = 2(sqrt(M)-1)
        ens, _ = _stable_ensemble(0.5, n_paths=4000, seed=35)
        tab = growth(ens, (4000,))
        oracle = 2.0 * (np.sqrt(np.asarray([10.0, 100.0])) - 1.0)
        assert np.all(np.abs(tab.capped_means / oracle - 1.0) < 0.2)

    def test_rows_must_match_caps(self):
        from sdelab import ValidationError
        ens = brownian_paths(n_paths=50, n_steps=128, seed=3)
        plain = big_jump_sums(ident, ens, 1.0)
        with pytest.raises(ValidationError):
            dirichlet_condition_intY(plain, ens.active, a=1.0, sample_sizes=(50,),
                                     caps=CAPS)
        with pytest.raises(ValidationError):
            dirichlet_condition_intY(big_jump_sums(ident, ens, 1.0, (10.0, 100.0, 1e3)),
                                     ens.active, a=1.0, sample_sizes=(50,), caps=CAPS)
        with pytest.raises(ValidationError):
            dirichlet_condition_intY(big_jump_sums(ident, ens, 1.0, CAPS),
                                     ens.active[:40], a=1.0, sample_sizes=(40,), caps=CAPS)

    @pytest.mark.parametrize("caps", ((10.0,), (100.0, 10.0), (10.0, 10.0)))
    def test_caps_must_be_a_ladder(self, caps):
        # one cap, or caps that do not increase, cannot show the tail grow
        from sdelab import ValidationError
        ens = brownian_paths(n_paths=50, n_steps=128, seed=3)
        with pytest.raises(ValidationError, match="ladder"):
            dirichlet_condition_intY(big_jump_sums(ident, ens, 1.0, caps), ens.active,
                                     a=1.0, sample_sizes=(50,), caps=caps)

    def test_a_sample_size_must_fit(self):
        from sdelab import ValidationError
        ens = brownian_paths(n_paths=50, n_steps=128, seed=3)
        with pytest.raises(ValidationError, match="no sample size"):
            growth(ens, (100, 300))


# ---------------------------------------------------------------------------
# remainder reconstruction
# ---------------------------------------------------------------------------

class TestGammaResidual:
    def test_missing_driver_records_rejected(self, flat_coeffs):
        times = np.linspace(0, 1, 11)
        fake = brownian_paths(n_paths=2, n_steps=64, seed=1)
        object.__setattr__(fake, "dW", np.empty(0))
        with pytest.raises(MissingDriverRecord):
            gamma_residual_qv(fake, np.sin, np.cos, EquationX(flat_coeffs),
                              (0.125,))

    def test_brownian_remainder_shrinks_along_ladder(self, flat_coeffs):
        ens = brownian_paths(n_paths=100, n_steps=4096, seed=22)
        rep = gamma_residual_qv(ens, np.sin, np.cos, EquationX(flat_coeffs),
                                (0.125, 0.0625, 0.03125, 0.015625),
                                phi_bound=1.0)
        assert rep.decreasing()
        assert rep.final < 0.05

    def test_identity_map_no_drift_zero(self, flat_coeffs):
        ens = brownian_paths(n_paths=20, n_steps=256, seed=23)
        rep = gamma_residual_qv(ens, ident,
                                lambda x: np.ones_like(np.asarray(x, dtype=float)),
                                EquationX(flat_coeffs), (0.125, 0.0625))
        assert np.max(rep.mean_qv) < 1e-25


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

class TestVerdicts:
    @pytest.mark.parametrize("reference", (0.0, 2.0))
    def test_table_without_big_jumps_is_inconclusive(self, reference):
        # a last mean of 0 read no big jump: no evidence either way
        table = IntegrabilityGrowthTable(threshold=1.0,
                                         sample_sizes=np.asarray([100, 300, 1000]),
                                         means=np.zeros(3), caps=np.asarray(CAPS),
                                         capped_means=np.zeros(2))
        assert classify_dirichlet(table, reference=reference).verdict == "inconclusive"

    def test_dichotomy_between_tail_exponents(self):
        # references: the two-sided tail integral (finite for the light
        # tail: 2 * 0.5 / (1.5 - 1) = 2), its cap-100 truncation otherwise
        ens_l, _ = _stable_ensemble(1.5, seed=44)
        ens_h, _ = _stable_ensemble(0.5, seed=45)
        sizes = (100, 300, 1000, 2000)
        rep_l = classify_dirichlet(growth(ens_l, sizes), reference=2.0)
        rep_h = classify_dirichlet(growth(ens_h, sizes),
                                   reference=2.0 * (np.sqrt(100.0) - 1.0))
        assert rep_l.verdict == "consistent_with_dirichlet"
        assert rep_h.verdict == "inconsistent"
