"""Acceptance suite: one test per shipped guarantee, at desk scale.

Every test prints a single PASS/FAIL line; tolerances are pinned here and
expected values come from closed forms or independent quadrature computed
inside this module, never from the code under test.
"""
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import sdelab as sl
from sdelab import (CagladPath, DiscreteLaw, EquationX, FiniteActivityKernel,
                    ScenarioSpec, SimConfig,
                    clamped_running_sup, conjugation_residual, constant_functional,
                    counterexample_cauchy, counterexample_stable, engine_setup,
                    gamma_residual_qv, girsanov_weight,
                    local_generator, qv_sweep, run_scenario,
                    simulate_y, standard_profiles,
                    weighted_expectation, zero_functional)
from sdelab.scenarios import build_bundle
from sdelab.simulator import CharacteristicsY

from reference import (chain_rule_qv, identity_profile, row_jumps,
                       square_identity_residual)


def _criterion(num, name, ok, detail=""):
    print(f"\n[ACCEPTANCE {num:>2}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------
# shared heavy fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def weier_bundle():
    return build_bundle(ScenarioSpec(name="weierstrass_drift"))


@pytest.fixture(scope="module")
def atom_bundle():
    return build_bundle(ScenarioSpec(name="atom_jump"))


@pytest.fixture(scope="module")
def brownian_fine():
    """100 paths on a 2^14 grid, unit diffusion, no drift, no jumps."""
    cfg = SimConfig(horizon=1.0, n_steps=2**14, n_paths=100, master_seed=51,
                    big_jump_intensity_bound=0.0)
    chars = CharacteristicsY(
        b=lambda y: np.zeros_like(y),
        sigma0=lambda y: np.ones_like(np.asarray(y, dtype=float)))
    return simulate_y(engine_setup(chars, cfg, 0.0))


@pytest.fixture(scope="module")
def brownian_10k():
    spec = ScenarioSpec(name="brownian_baseline", n_paths=10_000, n_steps=256,
                        diagnostics=("martingale",))
    return run_scenario(spec)


@pytest.fixture(scope="module")
def atom_10k():
    spec = ScenarioSpec(name="atom_jump", n_paths=10_000, n_steps=512,
                        diagnostics=("martingale", "compensator"))
    return run_scenario(spec)


# ---------------------------------------------------------------------------
# 1. transform identities on the rough-drift scenario
# ---------------------------------------------------------------------------

def test_c01_transform_identities(weier_bundle):
    coeffs = weier_bundle.eq.coeffs
    tr, pot = coeffs.transform, coeffs.potential
    table_gap = float(np.max(np.abs(tr.hprime_values - np.exp(-pot.values))))
    lo, hi = tr.image
    yq = np.linspace(lo, hi, 2001)
    roundtrip = float(np.max(np.abs(tr.forward(tr.inverse(yq)) - yq)))
    probes = np.linspace(-2.0, 2.0, 1000)
    annihilation = float(np.max(np.abs(
        local_generator(identity_profile(), tr, coeffs.diffusion, probes))))
    ok = table_gap == 0.0 and roundtrip < 1e-6 and annihilation == 0.0
    _criterion(1, "transform identities", ok,
               f"derivative-table gap {table_gap}, inversion {roundtrip:.2e}, "
               f"annihilation {annihilation}")


# ---------------------------------------------------------------------------
# 2. square identity
# ---------------------------------------------------------------------------

def test_c02_square_identity(weier_bundle, tanh_coeffs):
    pts = np.linspace(-2.0, 2.0, 201)
    fixtures = (identity_profile(),) + standard_profiles()[:4]
    worst = 0.0
    for coeffs in (weier_bundle.eq.coeffs, tanh_coeffs):
        for prof in fixtures:
            worst = max(worst, square_identity_residual(
                prof, coeffs.transform, coeffs.diffusion, pts))
    _criterion(2, "square identity", worst < 1e-6,
               f"max residual {worst:.2e} over {2 * len(fixtures)} fixtures")


# ---------------------------------------------------------------------------
# 3. conjugation of the two generator formulations
# ---------------------------------------------------------------------------

def test_c03_conjugation(atom_bundle):
    rng = np.random.default_rng(77)
    profiles = standard_profiles()
    times = np.linspace(0.0, 1.0, 33)
    eq = replace(atom_bundle.eq, functional=clamped_running_sup(1.0))
    worst = 0.0
    for _ in range(20):
        vals = np.clip(np.cumsum(rng.standard_normal(33)) * 0.3, -2.5, 2.5)
        t = float(rng.choice(times[1:]))
        prof = profiles[rng.integers(len(profiles))]
        res = conjugation_residual(prof, eq, CagladPath(times, vals), t)
        worst = max(worst, float(res))
    _criterion(3, "conjugation", worst < 1e-6,
               f"max residual {worst:.2e} over 20 randomized triples")


# ---------------------------------------------------------------------------
# 4. kernel moment bound
# ---------------------------------------------------------------------------

def test_c04_kernel_moment():
    # independent oracle: 2 (int_0^1 x^{-1/2} + int_1^inf x^{-3/2}) = 8
    inner, _ = quad(lambda x: x**-0.5, 0, 1, epsabs=1e-12)
    outer, _ = quad(lambda x: x**-1.5, 1, np.inf, epsabs=1e-12)
    oracle = 2.0 * (inner + outer)
    assert abs(oracle - 8.0) < 1e-9
    kernel = sl.StableTailKernel(gamma=0.5, scale=1.0, alpha=0.0)
    rep = sl.moment_bound(kernel, np.linspace(-3.0, 3.0, 9))
    spread = float(np.max(rep.moments) - np.min(rep.moments))
    ok = abs(rep.sup - oracle) < 1e-6 and spread < 1e-12
    _criterion(4, "kernel moment bound", ok,
               f"bound {rep.sup:.9f} vs oracle {oracle:.9f}, spread {spread:.1e}")


# ---------------------------------------------------------------------------
# 5. realized-variation estimator
# ---------------------------------------------------------------------------

def test_c05_qv_estimator(brownian_fine):
    eps = (0.125, 0.0625, 0.03125, 0.015625)
    finest = qv_sweep(brownian_fine.times, brownian_fine.x[:100], eps, 1.0)[-1]
    mean_fine = float(np.mean(finest))
    times = np.linspace(0.0, 1.0, 11)
    step_val = float(qv_sweep(times, np.where(times >= 0.5, 1.0, 0.0), (0.1,), 1.0)[0])
    ok = abs(mean_fine - 1.0) < 0.05 and step_val == 1.0
    _criterion(5, "realized variation", ok,
               f"finest-window mean {mean_fine:.4f}, step path {step_val!r}")


# ---------------------------------------------------------------------------
# 6. chain rule for images of finite-variation-plus-jump paths
# ---------------------------------------------------------------------------

def test_c06_chain_rule():
    # piecewise-constant paths: both routes are exact
    times = np.linspace(0.0, 1.0, 101)
    vals = np.where(times >= 0.3, 0.7, 0.0) - np.where(times >= 0.6, 0.4, 0.0)
    jumps = ((0.3, 0.6), (0.0, 0.7), (0.7, -0.4))  # times, pre-jump values, sizes
    worst_exact = 0.0
    for phi, dphi in ((np.sin, np.cos),
                      (lambda x: np.asarray(x, dtype=float) ** 2,
                       lambda x: 2.0 * np.asarray(x, dtype=float))):
        cmp_ = chain_rule_qv(phi, dphi, times, vals, jumps, (0.1,), 1.0)
        worst_exact = max(worst_exact, abs(cmp_.predicted - cmp_.finest_estimate))

    # diffusive paths with one explicit jump size: ensemble agreement
    cfg = SimConfig(horizon=1.0, n_steps=2048, n_paths=100, master_seed=52,
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
    ok = worst_exact < 1e-9 and rel < 0.05
    _criterion(6, "chain rule", ok,
               f"deterministic gap {worst_exact:.2e}, ensemble gap {rel:.3%}")


# ---------------------------------------------------------------------------
# 7. martingale residuals (terminal mean and orthogonality, 5 profiles)
# ---------------------------------------------------------------------------

def test_c07_martingale_residuals(brownian_10k, atom_10k):
    worst = 0.0
    for (report, _), name in ((brownian_10k, "diffusive"), (atom_10k, "jump")):
        diag = next(d for d in report.diagnostics if d.name == "martingale")
        worst = max(worst, diag.statistic)
    _criterion(7, "martingale residuals", worst < 3.0,
               f"worst |z| {worst:.2f} over 2 scenarios x 5 profiles x 4 statistics")


# ---------------------------------------------------------------------------
# 8. compensator residuals
# ---------------------------------------------------------------------------

def test_c08_compensator_residual(atom_10k):
    diag_atom = next(d for d in atom_10k[0].diagnostics
                     if d.name == "compensator")
    spec = ScenarioSpec(name="stable_jump", n_paths=4000, n_steps=128,
                        diagnostics=("compensator",))
    report, _ = run_scenario(spec)
    diag_stable = report.diagnostics[0]
    worst = max(diag_atom.statistic, diag_stable.statistic)
    _criterion(8, "compensator residual", worst < 3.0,
               f"worst |z| {worst:.2f} (atom {diag_atom.statistic:.2f}, "
               f"power tail {diag_stable.statistic:.2f})")


# ---------------------------------------------------------------------------
# 9. exponential reweighting
# ---------------------------------------------------------------------------

def test_c09_girsanov(brownian_10k):
    _, ens = brownian_10k

    def kappa(functional):
        return girsanov_weight(ens.times, functional.grid_values(ens.times, ens.x),
                               ens.dW)

    exact_one = bool(np.all(kappa(zero_functional()) == 1.0))

    zs = []
    for functional in (constant_functional(0.5), clamped_running_sup(1.0)):
        k = kappa(functional)[ens.active, -1]
        se = np.std(k, ddof=1) / np.sqrt(len(k))
        zs.append(abs(np.mean(k) - 1.0) / se)

    c = 0.5
    est = weighted_expectation(kappa(constant_functional(c))[:, -1], ens.x[:, -1])
    chars = CharacteristicsY(
        b=lambda y: np.zeros_like(y),
        sigma0=lambda y: np.ones_like(np.asarray(y, dtype=float)),
        functional=constant_functional(c))
    direct = simulate_y(engine_setup(chars, replace(ens.config, master_seed=777), 0.0))
    dm = direct.x[direct.active, -1]
    z_cross = abs(est.value - np.mean(dm)) / np.sqrt(
        est.se**2 + np.var(dm, ddof=1) / len(dm))
    worst = max(max(zs), z_cross)
    ok = exact_one and worst < 3.0
    _criterion(9, "reweighting", ok,
               f"unit weight exact: {exact_one}; worst |z| {worst:.2f} "
               f"(means {zs[0]:.2f}/{zs[1]:.2f}, drift cross-check {z_cross:.2f})")


# ---------------------------------------------------------------------------
# 10. transform route against the exact law for a classical drift
# ---------------------------------------------------------------------------

def test_c10_smooth_drift_crosscheck():
    spec = ScenarioSpec(name="smooth_drift_crosscheck", n_paths=10_000,
                        n_steps=256, diagnostics=("law",))
    report, ens = run_scenario(spec)
    diag = report.diagnostics[0]
    # X_1 is N(0.3, 1): the terminal mean and variance against their closed
    # forms, and the law diagnostic's references against E cos X_1, E sin X_1
    xt = ens.terminal_x()
    n, mean, var = len(xt), np.mean(xt), np.var(xt, ddof=1)
    z_mean = abs(mean - 0.3) / np.sqrt(var / n)
    z_var = abs(var - 1.0) / np.sqrt((np.mean((xt - mean) ** 4) - var**2) / n)
    ref_gap = max(abs(diag.details["cos_reference"] - np.cos(0.3) * np.exp(-0.5)),
                  abs(diag.details["sin_reference"] - np.sin(0.3) * np.exp(-0.5)))
    worst = max(diag.statistic, z_mean, z_var)
    ok = diag.status == "pass" and worst < 3.0 and ref_gap < 1e-4
    _criterion(10, "smooth-drift exact law", ok,
               f"worst |z| {worst:.2f} over E cos, E sin, E tanh, mean and "
               f"variance of X_1; mean {mean:.4f} vs 0.3; reference off the "
               f"closed form by {ref_gap:.1e}")


# ---------------------------------------------------------------------------
# 11. integrability dichotomy of the jump-size tail exponent
# ---------------------------------------------------------------------------

def test_c11_counterexample_stable():
    caps = (10.0, 100.0)
    scale, a, T = 0.5, 1.0, 1.0
    cfg = SimConfig(horizon=T, n_steps=64, n_paths=10_000, master_seed=41)

    heavy = counterexample_stable(0.5, config=cfg, scale=scale, a=a, caps=caps)
    light = counterexample_stable(1.5, config=cfg, scale=scale, a=a, caps=caps)

    def oracle(gamma, hi):
        # two-sided truncated size integral, by independent quadrature
        val, _ = quad(lambda x: 2.0 * scale * x * x ** (-1.0 - gamma), a, hi,
                      epsabs=1e-12)
        return T * val

    # closed form for the heavy tail: 2 (sqrt(M) - 1)
    assert abs(oracle(0.5, 10.0) - 2.0 * (np.sqrt(10.0) - 1.0)) < 1e-9
    assert abs(oracle(0.5, 100.0) - 18.0) < 1e-9

    rels = []
    for rep, gamma in ((heavy, 0.5), (light, 1.5)):
        measured = np.asarray(rep.diagnostics[0].details["growth"]["capped_means"])
        target = np.asarray([oracle(gamma, m) for m in caps])
        rels.extend(np.abs(measured / target - 1.0))
    worst_rel = float(np.max(rels))

    full_light = oracle(1.5, np.inf)
    stab_gap = abs(oracle(1.5, caps[-1]) / full_light - 1.0)

    v_heavy = heavy.diagnostics[0].details["verdict"]
    v_light = light.diagnostics[0].details["verdict"]
    ok = (worst_rel < 0.10 and v_heavy == "inconsistent"
          and v_light == "consistent_with_dirichlet")
    _criterion(11, "tail-exponent dichotomy", ok,
               f"capped means within {worst_rel:.1%} of the tail integrals; "
               f"verdicts {v_heavy} / {v_light}; light-tail truncation gap "
               f"{stab_gap:.1%}")


# ---------------------------------------------------------------------------
# 12. heavy-tailed image of a two-step martingale
# ---------------------------------------------------------------------------

def test_c12_counterexample_cauchy():
    rep = counterexample_cauchy(n_samples=1_000_000, caps=(10.0, 100.0, 1000.0),
                                seed=7)
    det = rep.diagnostics[0].details
    # oracle: (2/pi) int_0^M x/(1+x^2) dx = log(1+M^2)/pi
    curve, _ = quad(lambda x: (2.0 / np.pi) * x / (1.0 + x**2), 0, 100,
                    epsabs=1e-12)
    assert abs(curve - np.log1p(100.0**2) / np.pi) < 1e-9
    measured = det["truncated_means"][det["caps"].index(100.0)]
    rel = abs(measured / curve - 1.0)
    ok = (rel < 0.05 and det["strictly_increasing"]
          and det["martingale_mean_z"] < 3.0)
    _criterion(12, "infinite-mean image", ok,
               f"truncated mean {measured:.4f} vs {curve:.4f} ({rel:.2%}); "
               f"increasing: {det['strictly_increasing']}; "
               f"root-martingale |z| {det['martingale_mean_z']:.2f}")


# ---------------------------------------------------------------------------
# 13. remainder variation on the diffusive baseline
# ---------------------------------------------------------------------------

def test_c13_gamma_residual(brownian_fine):
    coeffs = sl.CoefficientSet.unit()
    rep = gamma_residual_qv(brownian_fine, np.sin, np.cos, EquationX(coeffs),
                            (0.125, 0.0625, 0.03125, 0.015625), phi_bound=1.0)
    ok = rep.decreasing() and rep.final < 0.05
    _criterion(13, "remainder variation", ok,
               f"window sweep {np.array2string(rep.mean_qv, precision=4)}, "
               f"final {rep.final:.4f}")
