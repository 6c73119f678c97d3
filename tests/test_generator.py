"""Path-dependent generator assembly, conjugation, martingale residuals."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab import (CagladPath, CoefficientSet, ConjugateTestFunction, EquationX,
                    GeneratorValue, SimConfig, StableTailKernel,
                    clamped_running_sup, conjugation_residual,
                    constant_functional, evaluate_generator,
                    evaluate_transformed_generator,
                    generator_state, law_reference, local_generator,
                    martingale_residual_ensemble, resolve_functional,
                    simulate_x_markovian, sin_left_limit, standard_profiles,
                    zero_functional, ValidationError)
from sdelab.scenarios import ScenarioSpec, build_bundle

from reference import generator_ball_modulus, identity_profile, stopped

SIN = ConjugateTestFunction(np.sin, np.cos, lambda y: -np.sin(y), 1.0, "sin")
SQUARE = ConjugateTestFunction(lambda y: np.asarray(y, dtype=float) ** 2,
                               lambda y: 2.0 * np.asarray(y, dtype=float),
                               lambda y: np.full_like(np.asarray(y, dtype=float), 2.0),
                               100.0, "square")


def flat_path(value, n=33, T=1.0):
    t = np.linspace(0.0, T, n)
    return CagladPath(t, np.full(n, float(value)))


# ---------------------------------------------------------------------------
# caglad paths and functionals
# ---------------------------------------------------------------------------

class TestCagladPath:
    def test_restrict_drops_future(self):
        p = CagladPath(np.linspace(0, 1, 11), np.arange(11.0))
        r = p.restrict(0.51)
        assert r.horizon <= 0.51 + 1e-12
        assert len(r.values) == 6

    def test_stopped_freezes(self):
        p = CagladPath(np.linspace(0, 1, 11), np.arange(11.0))
        s = stopped(p, 0.5)
        assert s.value(1.0) == p.value(0.5)
        assert len(s.values) == len(p.values)

    def test_value_lookup_left_continuous_convention(self):
        p = CagladPath(np.asarray([0.0, 0.5, 1.0]), np.asarray([1.0, 2.0, 3.0]))
        assert p.value(0.49) == 1.0
        assert p.value(0.5) == 2.0


class TestFunctionals:
    def test_running_sup_clamped(self):
        f = clamped_running_sup(cap=1.0)
        p = CagladPath(np.linspace(0, 1, 5), np.asarray([0.0, 2.5, -1.0, 0.5, 0.3]))
        assert f.evaluate(p.restrict(0.0), 0.0) == 0.0
        assert f.evaluate(p.restrict(0.3), 0.3) == 1.0  # clamped at the cap

    @pytest.mark.parametrize("functional, closed_form", (
        (clamped_running_sup(cap=1.0),
         lambda x: np.clip(np.maximum.accumulate(x, axis=-1), -1.0, 1.0)),
        (sin_left_limit(amplitude=0.8, frequency=1.7),
         lambda x: 0.8 * np.sin(1.7 * x)),
        (resolve_functional("const:0.7"), lambda x: np.full_like(x, 0.7)),
    ), ids=("running_sup", "sin_left_limit", "const"))
    def test_grid_values_and_evaluate_match_closed_form(self, functional,
                                                        closed_form):
        times = np.linspace(0, 1, 17)
        rng = np.random.default_rng(0)
        x = np.cumsum(rng.standard_normal((40, 17)), axis=-1) * 0.6
        assert np.array_equal(functional.grid_values(times, x), closed_form(x))
        path = CagladPath(times, x[5])
        point = [functional.evaluate(path.restrict(t), t) for t in times]
        assert np.array_equal(point, closed_form(x[5]))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            resolve_functional("nope")

    def test_const_prefix_resolves(self):
        f = resolve_functional("const:0.7")
        assert f.evaluate(flat_path(0.0), 0.5) == 0.7


@settings(max_examples=30, deadline=None)
@given(data=st.lists(st.floats(-3, 3), min_size=4, max_size=24),
       frac=st.floats(0.1, 0.95))
def test_nonanticipation_bit_identity(data, frac):
    # evaluating on the restriction and on the frozen path must agree bitwise
    times = np.linspace(0.0, 1.0, len(data))
    path = CagladPath(times, np.asarray(data, dtype=float))
    t = float(frac)
    for f in (zero_functional(), clamped_running_sup(1.0), sin_left_limit()):
        a = f.evaluate(path.restrict(t), t)
        b = f.evaluate(stopped(path, t).restrict(t), t)
        assert a == b


# ---------------------------------------------------------------------------
# generator values
# ---------------------------------------------------------------------------

class TestEvaluateGenerator:
    def test_identity_profile_no_kernel_vanishes(self, tanh_coeffs, clamp1):
        eq = EquationX(tanh_coeffs, None, clamp1, zero_functional())
        gv = evaluate_generator(identity_profile(), eq, flat_path(0.4), 0.5)
        assert gv.total == 0.0

    def test_flat_formula_oracle(self, flat_coeffs, clamp1):
        # local 1 + drift 1 * 1 * (2 * 0.5) = 2 at a constant path at 0.5
        eq = EquationX(flat_coeffs, None, clamp1, constant_functional(1.0))
        gv = evaluate_generator(SQUARE, eq, flat_path(0.5), 0.7)
        assert abs(gv.total - 2.0) < 1e-9
        assert abs(gv.local - 1.0) < 1e-10
        assert abs(gv.drift - 1.0) < 1e-10

    def test_atom_kernel_oracle(self, flat_coeffs, unit_atom_kernel, clamp1):
        # jump part only: sin(1) - 1 at the origin
        eq = EquationX(flat_coeffs, unit_atom_kernel, clamp1, zero_functional())
        gv = evaluate_generator(SIN, eq, flat_path(0.0), 0.5)
        assert abs(gv.local) < 1e-12
        assert abs(gv.total - (np.sin(1.0) - 1.0)) < 1e-9

    def test_total_is_exact_sum(self):
        gv = GeneratorValue(local=0.1, drift=-0.7, jump=0.25)
        assert gv.total == 0.1 + -0.7 + 0.25

    def test_time_invariance_on_constant_paths(self, tanh_coeffs, atom_kernel,
                                               clamp1):
        p = flat_path(0.3)
        eq = EquationX(tanh_coeffs, atom_kernel, clamp1)
        a = evaluate_generator(SIN, eq, p, 0.25)
        b = evaluate_generator(SIN, eq, p, 0.75)
        assert a.total == b.total


class TestTransformedGenerator:
    def test_identity_transform_coincides(self, flat_coeffs, unit_atom_kernel,
                                          clamp1):
        p = flat_path(0.2)
        eq = EquationX(flat_coeffs, unit_atom_kernel, clamp1, constant_functional(0.5))
        lhs = evaluate_generator(SIN, eq, p, 0.5)
        rhs = evaluate_transformed_generator(
            SIN, eq, CagladPath(p.times, flat_coeffs.transform.forward(p.values)), 0.5)
        assert abs(lhs.total - rhs.total) < 1e-9

    def test_no_kernel_linear_potential_oracle(self, linear_coeffs, clamp1):
        tr = linear_coeffs.transform
        y1 = float(tr.forward(np.asarray(1.0)))
        gv = evaluate_transformed_generator(
            SQUARE, EquationX(linear_coeffs, None, clamp1), flat_path(y1), 0.5)
        assert abs(gv.total - np.exp(-1.2)) < 1e-8


class TestConjugation:
    def test_identity_transform_zero_residual(self, flat_coeffs, unit_atom_kernel,
                                              clamp1):
        rng = np.random.default_rng(3)
        times = np.linspace(0, 1, 17)
        vals = np.clip(np.cumsum(rng.standard_normal(17)) * 0.2, -2, 2)
        eq = EquationX(flat_coeffs, unit_atom_kernel, clamp1, clamped_running_sup(1.0))
        res = conjugation_residual(SIN, eq, CagladPath(times, vals), 0.6)
        assert res < 1e-9

    def test_no_kernel_smooth_case(self, tanh_coeffs, clamp1):
        res = conjugation_residual(SIN, EquationX(tanh_coeffs, None, clamp1),
                                   flat_path(0.7), 0.5)
        assert res < 1e-10

    def test_power_tail_is_rejected(self, clamp1):
        # a power tail needs the identity transform: no second route to compare
        eq = EquationX(CoefficientSet.unit(),
                       StableTailKernel(gamma=1.5, scale=0.5, alpha=0.75), clamp1)
        with pytest.raises(ValidationError, match="identity transform"):
            conjugation_residual(SIN, eq, flat_path(0.3), 0.5)

    def test_nonlinear_transform_atom_kernel_running_sup(self, tanh_coeffs,
                                                         atom_kernel, clamp1):
        rng = np.random.default_rng(11)
        profiles = standard_profiles()
        times = np.linspace(0, 1, 17)
        eq = EquationX(tanh_coeffs, atom_kernel, clamp1, clamped_running_sup(1.0))
        for _ in range(20):
            vals = np.clip(np.cumsum(rng.standard_normal(17)) * 0.3, -2.5, 2.5)
            t = float(rng.choice(times[1:]))
            prof = profiles[rng.integers(len(profiles))]
            res = conjugation_residual(prof, eq, CagladPath(times, vals), t)
            assert res < 1e-6

    @pytest.mark.parametrize("functional", (None, clamped_running_sup(1.0)),
                             ids=("markovian", "running_sup"))
    def test_transformed_generator_inverts_once(self, functional, tanh_coeffs,
                                                atom_kernel, clamp1, monkeypatch):
        # the path up to t is inverted in one call; the drift correction,
        # the pushforward, sigma0 and the functional all read that preimage
        from sdelab import ScaleTransform
        eq = EquationX(tanh_coeffs, atom_kernel, clamp1, functional)
        times = np.linspace(0, 1, 17)
        path = CagladPath(times, tanh_coeffs.transform.forward(np.sin(3 * times)))
        calls = []
        inverse = ScaleTransform.inverse

        def counted(self, y):
            calls.append(np.shape(y))
            return inverse(self, y)
        monkeypatch.setattr(ScaleTransform, "inverse", counted)
        gv = evaluate_transformed_generator(SIN, eq, path, 0.5)
        assert calls == [(9,)]
        assert gv.jump != 0.0 and (functional is None) == (gv.drift == 0.0)


# ---------------------------------------------------------------------------
# martingale residuals
# ---------------------------------------------------------------------------

class TestMartingaleResidual:
    def test_constant_path_annihilated_profile_zero(self, flat_coeffs, tanh_coeffs,
                                                    clamp1):
        # the transform profile solves the equation, so nothing accumulates
        times = np.linspace(0, 1, 65)
        path = CagladPath(times, np.full(65, 0.3))
        for coeffs in (flat_coeffs, tanh_coeffs):
            state = generator_state(EquationX(coeffs, None, clamp1, zero_functional()),
                                    path.times, path.values, None)
            M = martingale_residual_ensemble(state, identity_profile())
            assert np.max(np.abs(M)) < 1e-14

    def test_constant_path_generic_profile_accumulates_local_term(self,
                                                                  flat_coeffs,
                                                                  clamp1):
        times = np.linspace(0, 1, 65)
        path = CagladPath(times, np.full(65, 0.3))
        state = generator_state(EquationX(flat_coeffs, None, clamp1, zero_functional()),
                                path.times, path.values, None)
        M = martingale_residual_ensemble(state, SIN)
        # residual is minus the integrated local term, -t * (-sin(0.3)/2)
        expected = 0.5 * np.sin(0.3) * times
        assert np.max(np.abs(M - expected)) < 1e-12

    def test_brownian_terminal_mean_small(self, flat_coeffs, clamp1):
        cfg = SimConfig(horizon=1.0, n_steps=128, n_paths=2000, master_seed=7,
                        big_jump_intensity_bound=0.0)
        eq = EquationX(flat_coeffs, None, clamp1)
        ens = simulate_x_markovian(eq, cfg, 0.0)
        state = generator_state(eq, ens.times, ens.x, None)
        M = martingale_residual_ensemble(state, SIN)
        m_t = M[ens.active, -1]
        se = np.std(m_t, ddof=1) / np.sqrt(len(m_t))
        assert abs(np.mean(m_t)) < 3.0 * se

    def test_orthogonality_to_past(self, flat_coeffs, clamp1):
        cfg = SimConfig(horizon=1.0, n_steps=128, n_paths=2000, master_seed=8,
                        big_jump_intensity_bound=0.0)
        eq = EquationX(flat_coeffs, None, clamp1)
        ens = simulate_x_markovian(eq, cfg, 0.0)
        state = generator_state(eq, ens.times, ens.x, None)
        M = martingale_residual_ensemble(state, SIN)
        half = M.shape[1] // 2
        inc = M[:, -1] - M[:, half]
        g = np.clip(ens.x[:, half], -1, 1)
        prod = (inc * g)[ens.active]
        se = np.std(prod, ddof=1) / np.sqrt(len(prod))
        assert abs(np.mean(prod)) < 3.0 * se


# ---------------------------------------------------------------------------
# profile-free generator state
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def atom_small():
    """Reduced atom_jump ensemble: 200 paths on 128 steps."""
    from sdelab.scenarios import ScenarioSpec, build_bundle
    bundle = build_bundle(ScenarioSpec(name="atom_jump", n_paths=200, n_steps=128))
    ens = simulate_x_markovian(bundle.eq, bundle.sim, bundle.x0)
    return bundle, ens


def _x_side_residual(f, functional, bundle, ens):
    """Residual assembled directly in the original variable: the local
    term, f' and the atom sum each evaluate the transform themselves."""
    coeffs, kernel, trunc = bundle.eq.coeffs, bundle.eq.kernel, bundle.eq.trunc
    tr, x = coeffs.transform, ens.x
    lf = local_generator(f, tr, coeffs.diffusion, x)
    hv = 0.0 if functional is None else functional.grid_values(ens.times, x)
    fp = f.f_prime(tr, x)
    drift = coeffs.diffusion.sigma(x) * hv * fp
    fx, fpx = f.as_x_callables(tr)
    out = np.zeros_like(x)
    base = fx(x)
    for w, p in zip(kernel.law.positions, kernel.law.probs):
        out += p * (fx(x + w) - base - float(trunc(w)) * fpx(x))
    gen = lf + drift + kernel.rate_at(x) * out
    integ = np.cumsum(gen[:, :-1] * np.diff(ens.times), axis=-1)
    integ = np.concatenate([np.zeros((x.shape[0], 1)), integ], axis=-1)
    fvals = f.phi(tr.forward(x))
    return fvals - fvals[:, :1] - integ


class TestGeneratorState:
    @pytest.mark.parametrize("functional", (None, clamped_running_sup(1.0)),
                             ids=("no_functional", "running_sup"))
    def test_shared_state_matches_x_side_formulas(self, atom_small, functional):
        bundle, ens = atom_small
        state = generator_state(replace(bundle.eq, functional=functional),
                                ens.times, ens.x, None)
        assert len(state.atom_images) == len(bundle.eq.kernel.law.positions)
        for prof in standard_profiles():
            got = martingale_residual_ensemble(state, prof)
            want = _x_side_residual(prof, functional, bundle, ens)
            assert np.array_equal(got, want), prof.name
        # the state is only read: a second pass gives the same bits
        again = martingale_residual_ensemble(state, prof)
        assert np.array_equal(again, got)

    def test_state_carries_h_and_hprime_of_x(self, atom_small):
        bundle, ens = atom_small
        tr = bundle.eq.coeffs.transform
        state = generator_state(bundle.eq, ens.times, ens.x, None)
        assert np.array_equal(state.hx, tr.forward(ens.x))
        assert np.array_equal(state.hpx, tr.deriv(ens.x))

    def test_single_path_equals_ensemble_row(self, atom_small):
        bundle, ens = atom_small
        rows = [int(np.argmax(np.bincount(ens.jump_path,
                                          minlength=ens.n_paths))), 0]
        state = generator_state(bundle.eq, ens.times, ens.x, None)
        for prof in (standard_profiles()[0], identity_profile()):
            M = martingale_residual_ensemble(state, prof)
            for i in rows:
                one = generator_state(bundle.eq, ens.times, ens.x[i], None)
                single = martingale_residual_ensemble(one, prof)
                assert np.array_equal(single, M[i])

    def test_atoms_looked_up_once_per_ensemble(self, tanh_coeffs, clamp1, monkeypatch):
        from sdelab import TabulatedKernel
        kernel = TabulatedKernel(y_grid=np.linspace(-4.0, 4.0, 9),
                                 measures=tuple(((0.6, 0.5 + 0.05 * i), (-0.4, 0.3))
                                                for i in range(9)))
        calls = []
        atoms = kernel.atoms
        monkeypatch.setattr(kernel, "atoms", lambda x: calls.append(1) or atoms(x))
        x = np.linspace(-4.5, 4.5, 4 * 33).reshape(4, 33)
        state = generator_state(EquationX(tanh_coeffs, kernel, clamp1),
                                np.linspace(0.0, 1.0, 33), x, None)
        for prof in standard_profiles():
            martingale_residual_ensemble(state, prof)
        assert len(standard_profiles()) == 5 and len(calls) == 1


    def test_quadrature_kernel_table_follows_the_states(self):
        # stable_jump's heavy tail stretches its 400 paths over [-14, 158];
        # the jump term's table must still resolve the states near 0, where
        # almost all of them lie (0.029 off with evenly spaced nodes)
        from sdelab import generator, jump_operator
        bundle = build_bundle(ScenarioSpec(name="stable_jump", n_paths=400))
        eq = bundle.eq
        ens = simulate_x_markovian(eq, bundle.sim, bundle.x0)
        f = standard_profiles()[0]
        state = generator_state(eq, ens.times, ens.x,
                                generator.jump_tables(eq, (f,), ens.x))
        got = generator._jump_term_grid(f, state, f.phi(state.hx),
                                        f.phi_prime(state.hx) * state.hpx)
        fx, fpx = f.as_x_callables(eq.coeffs.transform)
        # 12 states spread over the first 25 paths and the whole horizon
        rows = np.arange(0, 24, 2)
        cols = np.linspace(1, len(ens.times) - 1, 12).astype(int)
        err = [abs(got[r, c] - jump_operator(fx, fpx, eq.kernel, eq.trunc, ens.x[r, c],
                                             f_sup=f.bound))
               for r, c in zip(rows, cols)]
        assert f.name == "sin" and max(err) < 1e-4, err
        # the widest quantile gaps are halved, so the tail state at x = 3.15
        # (8.2e-5 off on the quantile nodes alone) is resolved as well
        assert max(err) <= 2e-5, err


# ---------------------------------------------------------------------------
# generator modulus on balls
# ---------------------------------------------------------------------------

class TestBallModulus:
    def test_constant_profile_zero(self, flat_coeffs, clamp1):
        prof = ConjugateTestFunction(
            lambda y: np.full_like(np.asarray(y, dtype=float), 1.0),
            lambda y: np.zeros_like(np.asarray(y, dtype=float)),
            lambda y: np.zeros_like(np.asarray(y, dtype=float)), 1.0)
        eq = EquationX(flat_coeffs, None, clamp1, zero_functional())
        est = generator_ball_modulus(prof, eq, ball_radius=2.0, n_probes=6)
        assert np.max(est.sups) == 0.0

    def test_smooth_fixture_monotone_ladder(self, tanh_coeffs, clamp1):
        est = generator_ball_modulus(SIN, EquationX(tanh_coeffs, None, clamp1,
                                                    sin_left_limit()),
                                     ball_radius=2.0, n_probes=10, seed=4)
        assert np.all(np.diff(est.sups) >= 0)  # sups grow with the window
        assert est.sups[0] < est.sups[-1] + 1e-12

    def test_lipschitz_drift_functional_slope(self, flat_coeffs, clamp1):
        # identity-like profile, unit diffusion: the generator difference is
        # exactly the running-sup difference, which is 1-Lipschitz
        prof = identity_profile()
        eq = EquationX(flat_coeffs, None, clamp1, clamped_running_sup(cap=5.0))
        est = generator_ball_modulus(prof, eq, ball_radius=2.0, n_probes=24, seed=9)
        slope = est.slope()
        assert 0.5 < slope < 1.05
        assert np.all(est.sups <= est.deltas + 1e-9)


# ---------------------------------------------------------------------------
# the exact law reference
# ---------------------------------------------------------------------------

class TestLawReference:
    @pytest.mark.parametrize("name, mu", (("brownian_baseline", 0.0),
                                          ("smooth_drift_crosscheck", 0.3)))
    def test_second_order_against_the_normal_law(self, name, mu):
        # beta = mu x and sigma = 1 from 0: X_1 is N(mu, 1), so E cos X_1 =
        # cos(mu) e^(-1/2) and E sin X_1 = sin(mu) e^(-1/2); each halving of
        # the node spacing quarters the error
        eq = build_bundle(ScenarioSpec(name=name)).eq
        exact = np.array([np.cos(mu), np.sin(mu)]) * np.exp(-0.5)
        errs = np.abs([law_reference(eq, 0.0, 1.0, (np.cos, np.sin), n) - exact
                       for n in (401, 801, 1601)])
        assert np.all(errs[1] < 3e-5), errs
        real = errs[0] > 1e-9  # E sin X_1 = 0 by symmetry when mu = 0
        ratios = errs[:-1, real] / errs[1:, real]
        assert np.all((3.8 < ratios) & (ratios < 4.2)), ratios
        assert np.all(errs[:, ~real] < 1e-9), errs
