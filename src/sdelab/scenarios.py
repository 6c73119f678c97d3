"""Scenario registry, orchestration, counterexamples and report emission.

A scenario bundles coefficients, a jump kernel, a drift functional and a
simulation configuration under a registry name.  Running one always goes
request checks -> hypothesis checks -> simulation -> requested
diagnostics, in that order; a scenario whose checks fail never simulates.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import yaml

from .coefficients import (CoefficientSet, ConjugateTestFunction, DiffusionSpec,
                           DriftSpec, MollifierConfig, check_hypotheses)
from .errors import IoError, ValidationError
from .generator import (CagladPath, EquationX, constant_functional,
                        conjugation_residual, jump_tables, law_reference,
                        martingale_columns, resolve_functional, terminal_weights)
from .kernels import (DiscreteLaw, FiniteActivityKernel, Kernel, StableTailKernel,
                      moment_bound)
from .pathcalc import (DirichletReport, aligned_window_ladder, big_jump_sums,
                       classify_dirichlet, dirichlet_condition_intY, gamma_residual_qv,
                       qv_sweep)
from .simulator import (EngineSetup, Ensemble, SimConfig, _shared, build_characteristics,
                        check_seed, compensator_residual, engine_setup, is_finite_real,
                        simulate_blocks, simulate_x_markovian, weighted_expectation)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# bounded C^2 profiles used by the statistical diagnostics
# ---------------------------------------------------------------------------

def standard_profiles():
    """Five bounded C^2 profiles with hand-coded derivatives."""
    return (
        ConjugateTestFunction(np.sin, np.cos, lambda y: -np.sin(y), 1.0, "sin"),
        ConjugateTestFunction(lambda y: 0.5 * np.cos(2 * y),
                              lambda y: -np.sin(2 * y),
                              lambda y: -2.0 * np.cos(2 * y), 0.5, "cos2"),
        ConjugateTestFunction(np.tanh, lambda y: 1.0 - np.tanh(y) ** 2,
                              lambda y: -2.0 * np.tanh(y) * (1.0 - np.tanh(y) ** 2),
                              1.0, "tanh"),
        ConjugateTestFunction(lambda y: y / (1.0 + y**2),
                              lambda y: (1.0 - y**2) / (1.0 + y**2) ** 2,
                              lambda y: 2.0 * y * (y**2 - 3.0) / (1.0 + y**2) ** 3,
                              0.5, "ratio"),
        ConjugateTestFunction(lambda y: np.exp(-0.5 * y**2),
                              lambda y: -y * np.exp(-0.5 * y**2),
                              lambda y: (y**2 - 1.0) * np.exp(-0.5 * y**2),
                              1.0, "gauss"),
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass
class ScenarioBundle:
    name: str
    eq: EquationX
    x0: float
    sim: SimConfig
    diagnostics: tuple


def _identity(x):
    return np.asarray(x, dtype=float)


def _zero_beta(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _unit_sigma(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _linear_drift(slope):
    return DriftSpec(beta=lambda x: slope * np.asarray(x, dtype=float))


def _tanh_drift(amp=0.6, width=2.0):
    return DriftSpec(beta=lambda x: amp * np.tanh(np.asarray(x, dtype=float) / width))


def weierstrass_beta(n_terms=9, holder=0.5, lacunarity=2.0):
    """The first ``n_terms`` terms of the Weierstrass series
    sum_j b^(-holder j) sin(b^j x), b = ``lacunarity``; for 0 < holder < 1
    the full series is Hoelder continuous with exponent ``holder`` and no
    larger one (Hardy 1916)."""
    js = np.arange(n_terms)
    amps = lacunarity ** (-holder * js)
    freqs = lacunarity ** js

    def beta(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for a, f in zip(amps, freqs):
            out = out + a * np.sin(f * x)
        return out

    return beta


def _weierstrass_drift():
    return DriftSpec(beta=weierstrass_beta())


def _unit_diffusion():
    return DiffusionSpec(sigma=_unit_sigma, sigma_min=1.0, sigma_max=1.0)


def _build_brownian():
    grid = np.linspace(-8.0, 8.0, 641)
    coeffs = CoefficientSet.build(DriftSpec(beta=_zero_beta),
                                  _unit_diffusion(), MollifierConfig(), grid)
    return ScenarioBundle(
        name="brownian_baseline", eq=EquationX(coeffs), x0=0.0,
        sim=SimConfig(horizon=1.0, n_steps=256, n_paths=2000, master_seed=11,
                      big_jump_intensity_bound=0.0),
        diagnostics=("martingale", "qv", "gamma"),
    )


def _build_smooth_drift():
    grid = np.linspace(-8.0, 8.0, 801)
    coeffs = CoefficientSet.build(_linear_drift(0.3), _unit_diffusion(),
                                  MollifierConfig(), grid)
    return ScenarioBundle(
        name="smooth_drift_crosscheck", eq=EquationX(coeffs), x0=0.0,
        sim=SimConfig(horizon=1.0, n_steps=256, n_paths=4000, master_seed=5,
                      big_jump_intensity_bound=0.0),
        diagnostics=("law", "martingale"),
    )


def _build_weierstrass():
    grid = np.linspace(-4.0, 4.0, 1601)
    moll = MollifierConfig(widths=(1.25e-5, 6.25e-6))
    coeffs = CoefficientSet.build(_weierstrass_drift(), _unit_diffusion(), moll, grid)
    return ScenarioBundle(
        name="weierstrass_drift", eq=EquationX(coeffs), x0=0.0,
        sim=SimConfig(horizon=0.25, n_steps=128, n_paths=500, master_seed=3,
                      big_jump_intensity_bound=0.0),
        diagnostics=("martingale",),
    )


def _build_atom_jump():
    grid = np.linspace(-8.0, 8.0, 801)
    coeffs = CoefficientSet.build(_tanh_drift(), _unit_diffusion(),
                                  MollifierConfig(), grid)
    kernel = FiniteActivityKernel(rate=1.0, law=DiscreteLaw(((0.1, 1.0),)), alpha=1.0)
    return ScenarioBundle(
        name="atom_jump", eq=EquationX(coeffs, kernel), x0=0.0,
        sim=SimConfig(horizon=1.0, n_steps=512, n_paths=2000, master_seed=17,
                      small_jump_cutoff=0.01, big_jump_intensity_bound=1.05),
        diagnostics=("martingale", "compensator", "conjugation"),
    )


def _build_stable_jump(gamma=1.5, scale=0.5):
    coeffs = CoefficientSet.unit()
    alpha = min(1.0, gamma / 2.0)
    kernel = StableTailKernel(gamma=gamma, scale=scale, alpha=alpha)
    delta = 0.1
    lam = 2.0 * float(kernel.one_tail_mass(delta))
    return ScenarioBundle(
        name="stable_jump", eq=EquationX(coeffs, kernel), x0=0.0,
        sim=SimConfig(horizon=1.0, n_steps=128, n_paths=2000, master_seed=29,
                      small_jump_cutoff=delta,
                      big_jump_intensity_bound=lam * 1.02),
        diagnostics=("compensator", "qv"),
    )


def _build_path_dependent():
    grid = np.linspace(-8.0, 8.0, 641)
    coeffs = CoefficientSet.build(DriftSpec(beta=_zero_beta),
                                  _unit_diffusion(), MollifierConfig(), grid)
    return ScenarioBundle(
        name="path_dependent_drift",
        eq=EquationX(coeffs, functional=resolve_functional("clamped_running_sup")),
        x0=0.0,
        sim=SimConfig(horizon=1.0, n_steps=256, n_paths=4000, master_seed=23,
                      big_jump_intensity_bound=0.0),
        diagnostics=("girsanov", "martingale"),
    )


_REGISTRY: dict = {
    "brownian_baseline": _build_brownian,
    "smooth_drift_crosscheck": _build_smooth_drift,
    "weierstrass_drift": _build_weierstrass,
    "atom_jump": _build_atom_jump,
    "stable_jump": _build_stable_jump,
    "path_dependent_drift": _build_path_dependent,
}


def scenario_names():
    return tuple(sorted(_REGISTRY))


# ---------------------------------------------------------------------------
# declarative specification
# ---------------------------------------------------------------------------

@dataclass
class ScenarioSpec:
    name: str
    n_paths: Optional[int] = None
    n_steps: Optional[int] = None
    seed: Optional[int] = None
    horizon: Optional[float] = None
    x0: Optional[float] = None
    diagnostics: Optional[tuple] = None
    params: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "name": self.name, "n_paths": self.n_paths, "n_steps": self.n_steps,
            "seed": self.seed, "horizon": self.horizon, "x0": self.x0,
            "diagnostics": list(self.diagnostics) if self.diagnostics else None,
            "params": dict(sorted(self.params.items())),
        }


def load_spec(path) -> ScenarioSpec:
    """Read a declarative scenario description (plain key/value document).
    An unreadable file raises ``IoError``, one that is not YAML
    ``ValidationError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise IoError(f"cannot read configuration {path!r}: {exc}") from exc
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ValidationError(f"configuration {path!r} is not valid YAML: {exc}") from exc
    sect = doc.get("scenario") if isinstance(doc, dict) else None
    if not isinstance(sect, dict):
        raise ValidationError("configuration must contain a 'scenario' mapping")
    known = {"name", "n_paths", "n_steps", "seed", "horizon", "x0",
             "diagnostics", "params"}
    unknown = set(sect) - known
    if unknown:
        raise ValidationError(f"unknown configuration keys: {sorted(unknown)}")
    if "name" not in sect:
        raise ValidationError("scenario.name is required")
    diags, params = sect.get("diagnostics"), sect.get("params")
    if diags is not None and not (isinstance(diags, list)
                                  and all(isinstance(d, str) for d in diags)):
        raise ValidationError(f"scenario.diagnostics must list names, got {diags!r}")
    if params is not None and not isinstance(params, dict):
        raise ValidationError(f"scenario.params must be a mapping, got {params!r}")
    return ScenarioSpec(
        name=str(sect["name"]),
        n_paths=sect.get("n_paths"), n_steps=sect.get("n_steps"),
        seed=sect.get("seed"), horizon=sect.get("horizon"), x0=sect.get("x0"),
        diagnostics=tuple(diags) if diags else None, params=dict(params or {}),
    )


def build_bundle(spec: ScenarioSpec) -> ScenarioBundle:
    if spec.name not in _REGISTRY:
        raise ValidationError(f"unknown scenario {spec.name!r}; "
                              f"known: {', '.join(scenario_names())}")
    builder = _REGISTRY[spec.name]
    params = dict(spec.params)
    functional_name = params.pop("functional", None)
    try:
        bundle = builder(**params)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad parameters for {spec.name}: {exc}") from exc
    sim = bundle.sim
    kw = {}
    # SimConfig validates the sizes, the seed and the horizon
    if spec.n_paths is not None:
        kw["n_paths"] = spec.n_paths
    if spec.n_steps is not None:
        kw["n_steps"] = spec.n_steps
    if spec.seed is not None:
        kw["master_seed"] = spec.seed
    if spec.horizon is not None:
        kw["horizon"] = spec.horizon
    if kw:
        sim = replace(sim, **kw)
    if spec.x0 is not None and not is_finite_real(spec.x0):
        raise ValidationError(f"x0 must be a finite number, got {spec.x0!r}")
    eq = bundle.eq
    if functional_name is not None:
        eq = replace(eq, functional=resolve_functional(str(functional_name)))
    return ScenarioBundle(
        name=bundle.name, eq=eq,
        x0=bundle.x0 if spec.x0 is None else float(spec.x0),
        sim=sim,
        diagnostics=spec.diagnostics if spec.diagnostics is not None
        else bundle.diagnostics,
    )


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass
class DiagnosticResult:
    name: str
    status: str  # pass / fail / inconclusive
    statistic: float
    tolerance: float
    details: dict = field(default_factory=dict)
    # the martingale diagnostic's jump-term tables, for the CLI; not reported
    jump_tables: Optional[dict] = field(default=None, repr=False, compare=False)

    def to_dict(self):
        return {"name": self.name, "status": self.status,
                "statistic": self.statistic, "tolerance": self.tolerance,
                "details": dict(sorted(self.details.items()))}


def _status(ok):
    return "pass" if ok else "fail"


# statistical gates read nothing from fewer active paths than this
MIN_ACTIVE_PATHS = 30


def _mean_z(values, center=0.0):
    """|mean - center| in standard errors; NaN when the error is not positive."""
    se = np.std(values, ddof=1) / np.sqrt(len(values))
    return float(abs(np.mean(values) - center) / se) if se > 0 else float("nan")


def _z_gate(name, zs, tol, n_active, details):
    """Pass when the largest z-score is below ``tol``.

    Fails closed: a non-finite z-score, or fewer than MIN_ACTIVE_PATHS
    active paths, makes the result inconclusive, never a pass.
    """
    worst = float(np.max(zs)) if len(zs) else float("nan")
    if n_active < MIN_ACTIVE_PATHS or not np.isfinite(worst):
        details = {**details, "active_paths": int(n_active),
                   "min_active_paths": MIN_ACTIVE_PATHS}
        return DiagnosticResult(name, "inconclusive", worst, tol, details)
    return DiagnosticResult(name, _status(worst < tol), worst, tol, details)


def _diag_martingale(bundle: ScenarioBundle, ens: Ensemble) -> DiagnosticResult:
    """Zero-mean terminal residuals and increment orthogonality, 5 profiles;
    weighted by the Girsanov weight when the bundle has a drift functional."""
    details = {}
    n_half = ens.x.shape[1] // 2
    # the engine does not simulate a drift functional, but the generator
    # includes it: the Girsanov weight of its grid values realises that
    # law, so the residuals are read under it
    profiles = standard_profiles()
    tables = jump_tables(bundle.eq, profiles, ens.x)
    res, kappa, (x_at, sup_at) = martingale_columns(bundle.eq, ens, profiles,
                                                    [n_half, -1], tables)
    pasts = {"clamp_mid": np.clip(x_at[:, 0], -1.0, 1.0),
             "one": np.ones_like(x_at[:, 0]),
             "runsup_mid": np.clip(sup_at[:, 0], -1.0, 1.0)}
    for prof, M in zip(profiles, res):
        m_t = M[ens.active, 1]
        inc = m_t - M[ens.active, 0]
        if kappa is not None:
            m_t, inc = m_t * kappa[ens.active], inc * kappa[ens.active]
        details[f"{prof.name}_terminal_z"] = _mean_z(m_t)
        for gname, g in pasts.items():
            details[f"{prof.name}_orth_{gname}_z"] = _mean_z(inc * g[ens.active])
    return replace(_z_gate("martingale", list(details.values()), 3.0,
                           int(np.sum(ens.active)), details),
                   jump_tables=tables)


def _diag_qv(bundle: ScenarioBundle, ens: Ensemble) -> DiagnosticResult:
    """Window sweep of the realized variation of the first 100 active paths
    against the driver-based value."""
    T = float(ens.times[-1])
    dt = float(ens.times[1] - ens.times[0])
    eps = aligned_window_ladder(ens.times)
    rows = np.flatnonzero(ens.active)[:100]
    vals = qv_sweep(ens.times, ens.x[rows], eps, T)[-1]
    sig = np.asarray(bundle.eq.coeffs.diffusion.sigma(ens.x[rows, :-1]))
    jumps = np.asarray([np.sum(ens.jump_w[ens.jumps_of(i)] ** 2) for i in rows])
    refs = np.sum(sig**2, axis=-1) * dt + jumps
    rel = abs(np.mean(vals) - np.mean(refs)) / max(np.mean(refs), 1e-12)
    return DiagnosticResult("qv", _status(rel < 0.1), float(rel), 0.1,
                            {"finest_mean": float(np.mean(vals)),
                             "reference_mean": float(np.mean(refs)),
                             "epsilons": [float(e) for e in eps]})


def _diag_gamma(bundle: ScenarioBundle, ens: Ensemble) -> DiagnosticResult:
    eps = aligned_window_ladder(ens.times)
    rep = gamma_residual_qv(ens, np.sin, np.cos, bundle.eq, eps, phi_bound=1.0)
    ok = rep.decreasing() and rep.final < 0.05
    return DiagnosticResult("gamma", _status(ok), rep.final, 0.05,
                            {"mean_qv": [float(v) for v in rep.mean_qv],
                             "decreasing": bool(rep.decreasing())})


def _diag_girsanov(bundle: ScenarioBundle, ens: Ensemble) -> DiagnosticResult:
    functional = bundle.eq.functional or constant_functional(0.5)
    k_t = terminal_weights(functional, ens)[ens.active]
    z = _mean_z(k_t, center=1.0)
    est = weighted_expectation(k_t, ens.terminal_x())
    return _z_gate("girsanov", [z], 3.0, len(k_t),
                   {"mean_weight": float(np.mean(k_t)),
                    "weighted_terminal_mean": est.value,
                    "weighted_terminal_se": est.se,
                    "functional": functional.name})


def _default_region(kernel: Kernel):
    if isinstance(kernel, FiniteActivityKernel):
        return [(w - 0.4 * abs(w), w + 0.4 * abs(w)) for w in kernel.law.positions]
    return [(1.0, np.inf), (-np.inf, -1.0)]


def _diag_compensator(bundle: ScenarioBundle, ens: Ensemble) -> DiagnosticResult:
    kernel = bundle.eq.kernel
    stats = compensator_residual(ens, _default_region(kernel), kernel)
    return _z_gate("compensator", [abs(stats.zscore)], 3.0, len(stats.per_path),
                   {"mean": stats.mean, "se": stats.se})


def _diag_conjugation(bundle: ScenarioBundle, ens: Ensemble) -> DiagnosticResult:
    rng = np.random.default_rng(bundle.sim.master_seed + 99)
    profiles = standard_profiles()
    times = np.linspace(0.0, 1.0, 33)
    worst = 0.0
    for _ in range(20):
        steps = rng.standard_normal(len(times) - 1) * 0.25
        vals = np.concatenate([[0.0], np.cumsum(steps)])
        vals = np.clip(vals, -2.0, 2.0)
        t = float(rng.choice(times[1:]))
        prof = profiles[rng.integers(len(profiles))]
        res = conjugation_residual(prof, bundle.eq, CagladPath(times, vals), t)
        worst = max(worst, float(res))
    return DiagnosticResult("conjugation", _status(worst < 1e-6), worst, 1e-6, {})


# bounded functions of X_T whose means ``law`` checks against the exact law,
# and the nodes of that law's reference and of the coarser one that checks it
_LAW_FUNCTIONS = {"cos": np.cos, "sin": np.sin, "tanh": np.tanh}
_LAW_NODES = (801, 401)


def _diag_law(bundle: ScenarioBundle, ens: Ensemble) -> DiagnosticResult:
    """Means of bounded functions of X_T against the exact law
    (``law_reference``); inconclusive when the coarser reference is more than
    0.1 standard errors of a mean away from the finer."""
    xt = ens.terminal_x()
    vals = np.stack([g(xt) for g in _LAW_FUNCTIONS.values()])
    mean, se = np.mean(vals, axis=1), np.std(vals, axis=1, ddof=1) / np.sqrt(len(xt))
    ref, coarse = (law_reference(bundle.eq, bundle.x0, bundle.sim.horizon,
                                 list(_LAW_FUNCTIONS.values()), n) for n in _LAW_NODES)
    with np.errstate(divide="ignore", invalid="ignore"):
        z, gap = (mean - ref) / se, float(np.max(np.abs(ref - coarse) / se))
    details = {f"{name}_{key}": float(v) for name, *row in zip(_LAW_FUNCTIONS, mean, ref, z)
               for key, v in zip(("mean", "reference", "z"), row)}
    details["reference_gap_se"] = gap
    result = _z_gate("law", np.abs(z), 3.0, len(xt), details)
    return result if gap <= 0.1 else replace(result, status="inconclusive")


# every Dirichlet verdict's big-jump threshold, cap ladder and growth-table
# sample sizes (cut below the active count, which ends the table)
_DIRICHLET_THRESHOLD = 1.0
_DIRICHLET_CAPS = (10.0, 100.0)
_DIRICHLET_LADDER = (100, 300, 1000, 3000, 10000, 30000, 100000)
_DIRICHLET_STATUS = {"inconsistent": "fail", "inconclusive": "inconclusive",
                     "consistent_with_dirichlet": "pass"}


def dirichlet_report(kernel: Optional[Kernel], x0, horizon, sums, active,
                     a=_DIRICHLET_THRESHOLD, caps=_DIRICHLET_CAPS) -> DirichletReport:
    """The Dirichlet report of the big-jump ``sums`` (``big_jump_sums``
    rows for ``caps``) of a run of ``kernel`` from ``x0`` over ``horizon``.

    Its reference is the integral of |w| over the jumps of ``kernel`` at
    ``x0`` larger than ``a`` in size, times ``horizon``; where that
    diverges, its truncation at the largest cap; 0 without a kernel.
    """
    n = int(np.sum(active))
    ladder = [m for m in _DIRICHLET_LADDER if m < n] + [n]
    growth = dirichlet_condition_intY(sums, active, a=a, sample_sizes=ladder, caps=caps)
    ref = 0.0
    if kernel is not None:
        ref = float(kernel.mass(x0, [(-np.inf, -a), (a, np.inf)], 1.0)) * horizon
        if not np.isfinite(ref):
            hi = float(max(caps))
            ref = float(kernel.mass(x0, [(-hi, -a), (a, hi)], 1.0)) * horizon
    return classify_dirichlet(growth, reference=ref)


def _diag_dirichlet(bundle: ScenarioBundle, ens: Ensemble) -> DiagnosticResult:
    sums = big_jump_sums(_identity, ens, _DIRICHLET_THRESHOLD, _DIRICHLET_CAPS)
    report = dirichlet_report(bundle.eq.kernel, bundle.x0, ens.config.horizon, sums,
                              ens.active)
    return DiagnosticResult("dirichlet", _DIRICHLET_STATUS[report.verdict],
                            float(report.growth.means[-1]), np.inf, report.to_dict())


# name -> (diagnostic, tolerance); a diagnostic with a tolerance reads the
# ensemble's paths, and ``_diagnose`` makes it inconclusive without running
# it when fewer than MIN_ACTIVE_PATHS of them are active
_DIAGNOSTICS: dict = {
    "martingale": (_diag_martingale, 3.0),
    "qv": (_diag_qv, 0.1),
    "gamma": (_diag_gamma, 0.05),
    "girsanov": (_diag_girsanov, 3.0),
    "compensator": (_diag_compensator, 3.0),
    "conjugation": (_diag_conjugation, None),
    "law": (_diag_law, 3.0),
    "dirichlet": (_diag_dirichlet, np.inf),
}


def _diagnose(name, bundle: ScenarioBundle, ens: Ensemble) -> DiagnosticResult:
    """The diagnostic ``name`` on ``ens``, failing closed on too few paths."""
    fn, tol = _DIAGNOSTICS[name]
    n_active = int(np.sum(ens.active))
    if tol is not None and n_active < MIN_ACTIVE_PATHS:
        return _z_gate(name, [], tol, n_active, {})
    return fn(bundle, ens)


# ---------------------------------------------------------------------------
# run reports
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    scenario: str
    spec: dict
    seed: int
    hypothesis: dict
    simulation: dict
    diagnostics: list
    wall_clock: float = 0.0

    @property
    def status(self):
        """fail if any diagnostic failed, else inconclusive if any was,
        else pass."""
        for status in ("fail", "inconclusive"):
            if any(d.status == status for d in self.diagnostics):
                return status
        return "pass"

    def to_dict(self):
        """The deterministic report: everything but the wall clock."""
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "spec": self.spec,
            "seed": self.seed,
            "status": self.status,
            "hypothesis": self.hypothesis,
            "simulation": self.simulation,
            "diagnostics": [x.to_dict() for x in self.diagnostics],
        }


def _hypothesis_section(bundle: ScenarioBundle):
    rep = check_hypotheses(bundle.eq.coeffs.potential)
    out = {"potential": rep.to_dict()}
    if bundle.eq.kernel is not None:
        probes = np.linspace(-2.0, 2.0, 9)
        kr = moment_bound(bundle.eq.kernel, probes, radius=bundle.eq.trunc.radius)
        out["kernel"] = {"moment_sup": kr.sup, "alpha": kr.alpha,
                         "m1_max": float(np.max(kr.m1)),
                         "m2_max": float(np.max(kr.m2))}
    if not rep.converged:
        raise ValidationError("potential construction did not converge")
    return out


def _simulation_section(config: SimConfig, xt, excluded, n_jumps):
    """The report's simulation section from the run's configuration, the
    terminal X of its active paths, its exclusion count and jump count."""
    return {
        "n_paths": int(config.n_paths),
        "n_steps": int(config.n_steps),
        "horizon": float(config.horizon),
        "excluded": int(excluded),
        "n_jumps": int(n_jumps),
        "terminal_mean": float(np.mean(xt)),
        "terminal_var": float(np.var(xt, ddof=1)) if len(xt) > 1 else 0.0,
    }


def _check_diagnostics(bundle: ScenarioBundle):
    """Reject, before the hypothesis gate and the simulation, a requested
    diagnostic that is unknown or that the bundle cannot feed
    (``ValidationError``)."""
    diags, eq = bundle.diagnostics, bundle.eq
    unknown = [d for d in diags if d not in _DIAGNOSTICS]
    if unknown:
        raise ValidationError(f"unknown diagnostics: {unknown}")
    if "compensator" in diags and eq.kernel is None:
        raise ValidationError("the compensator diagnostic needs a jump kernel")
    # a power tail needs the identity transform, so both sides of the
    # conjugation would be one integral
    if "conjugation" in diags and isinstance(eq.kernel, StableTailKernel):
        raise ValidationError("the conjugation diagnostic needs a kernel with atoms, "
                              "not a power tail")
    diffusion = eq.coeffs.diffusion
    if "law" in diags and (eq.kernel is not None or eq.functional is not None
                           or diffusion.sigma_min != diffusion.sigma_max
                           or eq.coeffs.transform.is_identity):
        raise ValidationError("the law diagnostic needs no jump kernel, no drift "
                              "functional and a constant sigma on a bounded domain")


def run_scenario(spec: ScenarioSpec) -> tuple:
    """Validate, simulate and diagnose; returns (report, ensemble)."""
    t0 = time.perf_counter()
    return run_bundle(spec, build_bundle(spec), t0)


def run_bundle(spec: ScenarioSpec, bundle: ScenarioBundle, t0=None) -> tuple:
    """``run_scenario`` for a bundle already built from ``spec``; the wall
    clock counts from ``t0`` (default: now)."""
    t0 = time.perf_counter() if t0 is None else t0
    _check_diagnostics(bundle)
    hypothesis = _hypothesis_section(bundle)  # hard gate before any simulation
    ens = simulate_x_markovian(bundle.eq, bundle.sim, bundle.x0)
    results = [_diagnose(d, bundle, ens) for d in bundle.diagnostics]
    report = RunReport(
        scenario=bundle.name, spec=spec.to_dict(), seed=bundle.sim.master_seed,
        hypothesis=hypothesis,
        simulation=_simulation_section(ens.config, ens.terminal_x(),
                                       ens.excluded_count, len(ens.jump_time)),
        diagnostics=results, wall_clock=time.perf_counter() - t0,
    )
    return report, ens


# ---------------------------------------------------------------------------
# counterexamples
# ---------------------------------------------------------------------------

COUNTEREXAMPLE_STABLE_CONFIG = SimConfig(horizon=1.0, n_steps=64, n_paths=4000,
                                         master_seed=41)


def _stable_setup(gamma, config: SimConfig, scale) -> EngineSetup:
    """The engine setup of ``counterexample_stable``: unit Brownian motion
    plus the power tail of exponent ``gamma``, with the cutoff, small-jump
    mode and dominating intensity that the exponent sets in ``config``."""
    kernel = StableTailKernel(gamma=gamma, scale=scale, alpha=min(1.0, gamma / 2.0))
    delta = 0.05 if gamma < 1.0 else 0.1
    lam = 2.0 * float(kernel.one_tail_mass(delta))
    mode = "drop" if gamma < 1.0 else "gaussian_match"
    config = replace(config, small_jump_cutoff=delta, small_jump_mode=mode,
                     big_jump_intensity_bound=lam * 1.02)
    return engine_setup(build_characteristics(EquationX(CoefficientSet.unit(), kernel)),
                        config, 0.0)


def counterexample_stable(gamma, config: Optional[SimConfig] = None, scale=0.5,
                          a=_DIRICHLET_THRESHOLD, caps=_DIRICHLET_CAPS) -> RunReport:
    """Brownian motion plus a pure-jump power tail: integrability dichotomy.

    For tail exponents below 1 the summed big-jump sizes have divergent
    expectation, so the growth table keeps climbing and the verdict is
    "inconsistent"; above 1 the table stabilises at the finite tail
    integral.  The symmetric kernel with an odd truncation produces no
    compensator drift, so the construction is exact.  Fewer than
    MIN_ACTIVE_PATHS active paths make the verdict inconclusive.
    """
    if not 0.0 < gamma < 2.0:
        raise ValidationError("gamma must lie in (0, 2)")
    t0 = time.perf_counter()
    setup = _stable_setup(gamma, config or COUNTEREXAMPLE_STABLE_CONFIG, scale)
    kernel, config = setup.chars.measure, setup.config

    # each block writes its paths' terminal X, active flags and big-jump
    # sums at their rows of arrays mapped shared before the fork, and sends
    # back only its jump count; nothing else of a block outlives it
    P = config.n_paths
    x_end, active, sums = _shared((P,)), _shared((P,), bool), _shared((1 + len(caps), P))

    def reduce(ens, paths):
        rows = slice(paths.start, paths.stop)
        x_end[rows], active[rows] = ens.x_end, ens.active
        sums[:, rows] = big_jump_sums(_identity, ens, a, caps)
        return len(ens.jump_time)

    n_jumps = sum(simulate_blocks(setup, reduce))
    expected = "inconsistent" if gamma < 1.0 else "consistent_with_dirichlet"
    echo = {"expected_verdict": expected, "gamma": float(gamma), "scale": float(scale)}
    n_active = int(np.sum(active))
    if n_active < MIN_ACTIVE_PATHS:
        diag = _z_gate("dirichlet_counterexample", [], np.inf, n_active, echo)
    else:
        report_d = dirichlet_report(kernel, 0.0, config.horizon, sums, active, a, caps)
        diag = DiagnosticResult(
            "dirichlet_counterexample", _status(report_d.verdict == expected),
            float(report_d.growth.means[-1]), np.inf, {**report_d.to_dict(), **echo})
    spec_echo = {"name": "counterexample_stable", "gamma": float(gamma),
                 "scale": float(scale), "threshold": float(a),
                 "caps": [float(c) for c in caps]}
    return RunReport(
        scenario="counterexample_stable", spec=spec_echo, seed=config.master_seed,
        hypothesis={"kernel": {"gamma": float(gamma), "alpha": kernel.alpha}},
        simulation=_simulation_section(config, x_end[active], int(np.sum(~active)),
                                       n_jumps),
        diagnostics=[diag],
        wall_clock=time.perf_counter() - t0,
    )


def counterexample_cauchy(n_samples=1_000_000, caps=(10.0, 100.0, 1000.0),
                          seed=7) -> RunReport:
    """C^1 image of a two-step martingale that is not integrable.

    A heavy-tailed symmetric variable Z with density 1/(pi (1+x^2)) has a
    square-rootable modulus, so the signed root martingale jumps by an
    integrable amount while its square jumps by |Z|, whose expectation is
    infinite.  Truncated means of |Z| below a cap M follow
    log(1 + M^2) / pi and keep growing along any cap ladder.
    """
    if n_samples < 10_000:
        raise ValidationError("need at least 1e4 samples")
    check_seed(seed)
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    z = rng.standard_cauchy(n_samples)
    root = np.sqrt(np.abs(z)) * np.sign(z)
    se_root = float(np.std(root, ddof=1) / np.sqrt(n_samples))
    mean_root = float(np.mean(root))
    caps = np.asarray(caps, dtype=float)
    trunc_means = np.asarray([float(np.mean(np.abs(z) * (np.abs(z) <= M)))
                              for M in caps])
    analytic = np.log1p(caps**2) / np.pi
    rel = np.abs(trunc_means / analytic - 1.0)
    increasing = bool(np.all(np.diff(trunc_means) > 0))
    z_mart = abs(mean_root) / se_root
    tol = 0.05 if n_samples >= 1_000_000 else 0.15
    ok = increasing and float(np.max(rel)) < tol and z_mart < 3.0
    diag = DiagnosticResult(
        "cauchy_counterexample", _status(ok), float(np.max(rel)), tol,
        {
            "caps": [float(c) for c in caps],
            "truncated_means": [float(v) for v in trunc_means],
            "analytic_curve": [float(v) for v in analytic],
            "strictly_increasing": increasing,
            "martingale_mean": mean_root,
            "martingale_mean_z": float(z_mart),
            "verdict": "image_not_integrable",
        },
    )
    spec_echo = {"name": "counterexample_cauchy", "n_samples": int(n_samples),
                 "caps": [float(c) for c in caps]}
    return RunReport(
        scenario="counterexample_cauchy", spec=spec_echo, seed=seed,
        hypothesis={}, simulation={"n_samples": int(n_samples)},
        diagnostics=[diag], wall_clock=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def report_json(report: RunReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, obj))


def report_csv(report: RunReport) -> str:
    """Flat key/value rows: columns are (key, value)."""
    rows = []
    _flatten("", report.to_dict(), rows)
    lines = ["key,value"]
    for k, v in rows:
        sv = json.dumps(v) if isinstance(v, str) else repr(v)
        lines.append(f"{k},{sv}")
    return "\n".join(lines) + "\n"


def emit_report(report: RunReport, fmt="json", out_dir=".", stem=None):
    """Write the report deterministically; returns the written path."""
    if fmt not in ("json", "csv"):
        raise ValidationError(f"unknown format {fmt!r}")
    stem = stem or f"report_{report.scenario}"
    try:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{stem}.{fmt}")
        payload = report_json(report) if fmt == "json" else report_csv(report)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise IoError(f"could not write report: {exc}") from exc
    return path
