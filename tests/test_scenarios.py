"""Scenario orchestration, reports, counterexamples, CLI surface."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from sdelab import (ScenarioSpec, ValidationError, counterexample_cauchy,
                    counterexample_stable, emit_report, load_spec, qv_sweep,
                    run_scenario, scenario_names)
from sdelab.scenarios import build_bundle, report_json
from sdelab.simulator import SimConfig
from reference import bump_mollifier, counterexample_reference, simulated_y


SMALL = dict(n_paths=400, n_steps=64)


# ---------------------------------------------------------------------------
# registry and validation
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_names_cover_the_shipped_set(self):
        names = scenario_names()
        for required in ("brownian_baseline", "smooth_drift_crosscheck",
                         "weierstrass_drift", "atom_jump", "stable_jump",
                         "path_dependent_drift"):
            assert required in names

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValidationError):
            build_bundle(ScenarioSpec(name="nope"))

    def test_unknown_functional_rejected(self):
        spec = ScenarioSpec(name="brownian_baseline",
                            params={"functional": "not_a_functional"})
        with pytest.raises(ValidationError):
            build_bundle(spec)

    def test_unknown_diagnostic_rejected(self):
        spec = ScenarioSpec(name="brownian_baseline", diagnostics=("bogus",),
                            **SMALL)
        with pytest.raises(ValidationError):
            run_scenario(spec)

    def test_out_of_range_builder_parameter_is_validation_error(self):
        with pytest.raises(ValidationError):
            build_bundle(ScenarioSpec(name="stable_jump", params={"gamma": 2.5}))

    def test_overrides_apply(self):
        spec = ScenarioSpec(name="brownian_baseline", n_paths=7, n_steps=11,
                            seed=99, x0=0.25)
        b = build_bundle(spec)
        assert b.sim.n_paths == 7 and b.sim.n_steps == 11
        assert b.sim.master_seed == 99 and b.x0 == 0.25


class TestShippedCoefficients:
    @pytest.mark.parametrize("name", ("smooth_drift_crosscheck", "atom_jump",
                                      "weierstrass_drift"))
    def test_two_mollifier_families_agree(self, name, monkeypatch):
        # the limit must not depend on the smoothing family; the scenario's
        # mollifier ladder is read off its own potential build
        from sdelab import coefficients
        real, ladders = coefficients.compute_drift_potential, []
        monkeypatch.setattr(coefficients, "compute_drift_potential",
                            lambda *a, **kw: ladders.append(a[2]) or real(*a, **kw))
        coeffs = build_bundle(ScenarioSpec(name=name)).eq.coeffs
        (moll,) = ladders
        with bump_mollifier():
            alt = real(coeffs.drift, coeffs.diffusion, moll, coeffs.potential.grid)
        gap = float(np.max(np.abs(alt.values - coeffs.potential.values)))
        assert gap < 10.0 * moll.convergence_tol

    def test_weierstrass_default_amplitudes(self):
        # holder=0.5 gives the amplitudes 2^(-j/2), bit for bit
        from sdelab.scenarios import weierstrass_beta
        x = np.linspace(-4.0, 4.0, 1001)
        want = np.zeros_like(x)
        for j in range(9):
            want = want + 2.0 ** (-j / 2.0) * np.sin(2.0**j * x)
        assert np.array_equal(weierstrass_beta()(x), want)
        got = weierstrass_beta(n_terms=3, holder=0.25, lacunarity=3.0)(x)
        want = sum(3.0 ** (-0.25 * j) * np.sin(3.0**j * x) for j in range(3))
        assert np.allclose(got, want, rtol=0.0, atol=1e-14)

    def test_stable_jump_accepts_tail_exponent(self):
        b = build_bundle(ScenarioSpec(name="stable_jump",
                                      params={"gamma": 0.8}))
        assert b.eq.kernel.gamma == 0.8


class TestDefaultPathsWithoutScipy:
    def test_no_scipy_module_is_loaded(self, tmp_path):
        # a fresh interpreter in which `import scipy` fails: scipy is a test
        # dependency only, and this interpreter has loaded it for other tests
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "try:\n"
            "    import scipy.integrate\n"
            "except ImportError:\n"
            "    pass\n"
            "else:\n"
            "    sys.exit('scipy was not blocked')\n"
            "import sdelab.cli as cli\n"
            "from sdelab import (ScenarioSpec, SimConfig, counterexample_cauchy,\n"
            "                    counterexample_stable, run_scenario, scenario_names)\n"
            "for name in scenario_names():\n"
            "    run_scenario(ScenarioSpec(name=name, n_paths=400, n_steps=64))\n"
            "cfg = SimConfig(horizon=1.0, n_steps=16, n_paths=200, master_seed=41)\n"
            "for gamma in (0.5, 1.5):\n"
            "    counterexample_stable(gamma, config=cfg)\n"
            "counterexample_cauchy(n_samples=10000)\n"
            "out = sys.argv[1]\n"
            "for argv in (['check-coefficients', '--name', 'weierstrass_drift'],\n"
            "             ['check-kernel', '--name', 'atom_jump'],\n"
            "             ['check-kernel', '--name', 'stable_jump'],\n"
            "             ['qv', '--name', 'brownian_baseline', '--paths', '200',\n"
            "              '--steps', '64', '--dump-paths', '2'],\n"
            "             ['dirichlet', '--name', 'stable_jump', '--paths', '200',\n"
            "              '--steps', '32'],\n"
            "             ['verify-martingale', '--name', 'path_dependent_drift',\n"
            "              '--paths', '400', '--steps', '64', '--dump-paths', '3']):\n"
            "    code = cli.main(argv + ['--out', out])\n"
            "    assert code == 0, (argv, code)\n"
        )
        src = os.path.dirname(os.path.dirname(__import__("sdelab").__file__))
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestHardOrdering:
    def test_failing_checks_block_simulation(self, monkeypatch):
        # a kernel with a divergent tilted mass must abort before any paths
        import sdelab.scenarios as sc
        from sdelab import DivergentMoment, EquationX, StableTailKernel

        base = sc._build_stable_jump()
        bad = sc.ScenarioBundle(
            name="stable_jump",
            eq=EquationX(base.eq.coeffs,
                         StableTailKernel(gamma=1.5, scale=1.0, alpha=0.3)),
            x0=0.0, sim=base.sim, diagnostics=())
        monkeypatch.setitem(sc._REGISTRY, "stable_jump", lambda: bad)
        called = []
        monkeypatch.setattr(sc, "simulate_x_markovian",
                            lambda *a, **k: called.append(1))
        with pytest.raises(DivergentMoment):
            run_scenario(ScenarioSpec(name="stable_jump"))
        assert not called  # no simulation output after failed checks

    def test_conjugation_on_a_power_tail_is_rejected_first(self, monkeypatch):
        # a power tail needs the identity transform, so both sides of the
        # conjugation are one integral: rejected before the gate and the paths
        import sdelab.scenarios as sc
        called = []
        monkeypatch.setattr(sc, "_hypothesis_section", lambda *a: called.append(1))
        monkeypatch.setattr(sc, "simulate_x_markovian",
                            lambda *a, **k: called.append(2))
        with pytest.raises(ValidationError, match="conjugation diagnostic needs"):
            run_scenario(ScenarioSpec(name="stable_jump", diagnostics=("conjugation",)))
        assert not called

    @pytest.mark.parametrize("name", ("stable_jump", "atom_jump", "path_dependent_drift",
                                      "varying_sigma"))
    def test_law_needs_no_kernel_no_functional_and_a_constant_sigma(self, name,
                                                                    monkeypatch):
        # the exact law has none of these: rejected before the gate and the paths
        from dataclasses import replace

        import sdelab.scenarios as sc
        from sdelab import DiffusionSpec
        if name == "varying_sigma":
            base = sc._build_brownian()
            coeffs = replace(base.eq.coeffs, diffusion=DiffusionSpec(
                sigma=sc._unit_sigma, sigma_min=0.5, sigma_max=1.0))
            bundle = replace(base, eq=replace(base.eq, coeffs=coeffs))
            monkeypatch.setitem(sc._REGISTRY, name, lambda: bundle)
        called = []
        monkeypatch.setattr(sc, "_hypothesis_section", lambda *a: called.append(1))
        monkeypatch.setattr(sc, "simulate_x_markovian",
                            lambda *a, **k: called.append(2))
        with pytest.raises(ValidationError, match="the law diagnostic needs no jump "
                           "kernel, no drift functional and a constant sigma"):
            run_scenario(ScenarioSpec(name=name, diagnostics=("law",)))
        assert not called

    def test_law_needs_a_bounded_domain(self, monkeypatch):
        # the identity transform's domain is the whole line, over which
        # law_reference cannot lay its grid: rejected before any engine call
        import sdelab.scenarios as sc
        from sdelab import CoefficientSet, EquationX, simulator
        called = []
        monkeypatch.setattr(simulator, "_engine", lambda *a, **k: called.append(1))
        bundle = sc.ScenarioBundle(
            name="unit", eq=EquationX(CoefficientSet.unit()), x0=0.0,
            sim=SimConfig(n_paths=200, n_steps=16), diagnostics=("law",))
        with pytest.raises(ValidationError, match="constant sigma on a bounded domain"):
            sc.run_bundle(ScenarioSpec(name="brownian_baseline"), bundle)
        assert not called


def _resident_bytes(array):
    """This process's resident bytes in the mapping that holds ``array``:
    the Rss line of that mapping in /proc/self/smaps."""
    start, inside = array.__array_interface__["data"][0], False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            field = line.split()[0]
            if not field.endswith(":"):  # a mapping's header: lo-hi perms ...
                lo, hi = (int(v, 16) for v in field.split("-"))
                inside = lo <= start < hi
            elif inside and field == "Rss:":
                return int(line.split()[1]) * 1024
    raise AssertionError("no mapping holds the array")


class TestRunScenario:
    def test_brownian_baseline_passes(self):
        spec = ScenarioSpec(name="brownian_baseline", n_paths=2000, n_steps=256,
                            diagnostics=("martingale", "qv"))
        report, ens = run_scenario(spec)
        assert report.status == "pass"
        assert ens.excluded_count == 0
        assert {d.name for d in report.diagnostics} == {"martingale", "qv"}

    def test_atom_jump_passes(self):
        spec = ScenarioSpec(name="atom_jump", n_paths=1500, n_steps=256,
                            diagnostics=("compensator", "conjugation"))
        report, _ = run_scenario(spec)
        assert report.status == "pass"

    def test_smooth_drift_crosscheck_passes(self):
        # X_1 is N(0.3, 1): E cos X_1 = cos(0.3) e^(-1/2), E sin X_1 = sin(0.3) e^(-1/2)
        spec = ScenarioSpec(name="smooth_drift_crosscheck", n_paths=3000,
                            n_steps=128, diagnostics=("law",))
        report, _ = run_scenario(spec)
        assert report.status == "pass"
        det = report.diagnostics[0].details
        for name, exact in (("cos", np.cos(0.3)), ("sin", np.sin(0.3))):
            assert abs(det[f"{name}_reference"] - exact * np.exp(-0.5)) < 1e-4
            assert abs(det[f"{name}_mean"] - exact * np.exp(-0.5)) < 0.1

    def test_law_is_inconclusive_when_the_grids_disagree(self, monkeypatch):
        # an 11-node reference is far more than 0.1 standard errors off
        import sdelab.scenarios as sc
        spec = ScenarioSpec(name="smooth_drift_crosscheck", diagnostics=("law",), **SMALL)
        d = run_scenario(spec)[0].diagnostics[0]
        assert d.status == "pass" and d.details["reference_gap_se"] < 0.1
        monkeypatch.setattr(sc, "_LAW_NODES", (801, 11))
        d = run_scenario(spec)[0].diagnostics[0]
        assert d.status == "inconclusive" and d.details["reference_gap_se"] > 0.1

    @pytest.mark.xfail(strict=True, reason="the engine's step bias on the rough "
                       "drift: cos z -12.7, sin z +13.8, tanh z +14.0")
    def test_weierstrass_drift_passes_law_at_its_registry_default(self):
        spec = ScenarioSpec(name="weierstrass_drift", diagnostics=("law",))
        assert run_scenario(spec)[0].status == "pass"

    def test_girsanov_diagnostic_path_dependent(self):
        spec = ScenarioSpec(name="path_dependent_drift", n_paths=2000, n_steps=128,
                            diagnostics=("girsanov",))
        report, _ = run_scenario(spec)
        assert report.status == "pass"

    def test_path_dependent_default_run_passes_martingale(self):
        # the engine leaves the drift functional out; the martingale
        # residuals are read under its Girsanov weight
        report, _ = run_scenario(ScenarioSpec(name="path_dependent_drift"))
        assert [d.name for d in report.diagnostics] == ["girsanov", "martingale"]
        assert report.diagnostics[1].status == "pass"
        assert report.status == "pass"

    def test_identity_alias_is_never_written(self, monkeypatch):
        # under the identity X is Y itself: no diagnostic may write to it,
        # nor to a dealt ensemble, whose arrays the forked workers share
        self._check_never_written("stable_jump", ("compensator", "qv", "gamma",
                                                  "martingale", "dirichlet"), monkeypatch)

    def test_dealt_ensemble_is_never_written(self, monkeypatch):
        self._check_never_written("atom_jump", ("martingale", "qv", "gamma", "girsanov",
                                                "compensator", "conjugation", "dirichlet"),
                                  monkeypatch)

    def _check_never_written(self, name, diagnostics, monkeypatch):
        import hashlib
        from sdelab import coefficients, generator, scenarios, simulate_x_markovian
        monkeypatch.setattr(coefficients, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(coefficients, "_MIN_SHARE", 1)
        monkeypatch.setattr(generator, "_BLOCK", 7 * 33)  # 43 row blocks
        bundle = build_bundle(ScenarioSpec(name=name, n_paths=300, n_steps=32,
                                           diagnostics=diagnostics))
        ens = simulate_x_markovian(bundle.eq, bundle.sim, bundle.x0)
        assert bundle.eq.coeffs.transform.is_identity == (name == "stable_jump")
        fields = ("x", "x_end", "dW", "active")

        def digests():
            return [hashlib.sha256(getattr(ens, f).tobytes()).hexdigest() for f in fields]
        before = digests()
        results = [scenarios._diagnose(d, bundle, ens) for d in bundle.diagnostics]
        assert [r.name for r in results] == list(bundle.diagnostics)
        assert digests() == before

    @pytest.mark.parametrize("name", ("atom_jump", "stable_jump", "path_dependent_drift"),
                             ids=("atoms", "power_tail", "functional"))
    def test_martingale_columns_independent_of_worker_count(self, name, monkeypatch):
        import multiprocessing
        from sdelab import coefficients, generator, simulate_x_markovian
        from sdelab.scenarios import standard_profiles
        bundle = build_bundle(ScenarioSpec(name=name, n_paths=300, n_steps=32))
        ens = simulate_x_markovian(bundle.eq, bundle.sim, bundle.x0)
        monkeypatch.setattr(generator, "_BLOCK", 7 * 33)  # 43 row blocks, the last short
        monkeypatch.setattr(coefficients, "_MIN_SHARE", 1)
        made, table = [], generator._jump_table
        monkeypatch.setattr(generator, "_jump_table",
                            lambda *a: made.append(1) or table(*a))
        profiles, cols = standard_profiles()[:2], np.arange(33)
        tables = generator.jump_tables(bundle.eq, profiles, ens.x)
        got = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(coefficients, "_usable_cpus", lambda: cpus)
            got.append(generator.martingale_columns(bundle.eq, ens, profiles, cols, tables))
            assert multiprocessing.active_children() == []
        # a power tail's tables are built by the caller, once per profile,
        # and no worker builds another
        assert len(made) == (len(profiles) if name == "stable_jump" else 0)
        (res, kappa, pasts), rest = got[0], got[1:]
        assert res.shape == (len(profiles), 300, 33)
        assert (kappa is None) == (name != "path_dependent_drift")
        # the pasts are X and its running sup at the columns
        assert np.array_equal(pasts[0], ens.x)
        for c in cols:
            assert np.array_equal(pasts[1][:, c], np.max(ens.x[:, :c + 1], axis=-1))
        for res_k, kappa_k, pasts_k in rest:
            assert np.array_equal(res_k, res) and np.array_equal(pasts_k, pasts)
            assert (kappa_k is None and kappa is None) or np.array_equal(kappa_k, kappa)

    @pytest.mark.parametrize("name", ("atom_jump", "path_dependent_drift",
                                      "brownian_baseline", "stable_jump"))
    def test_martingale_report_independent_of_worker_count(self, name, monkeypatch):
        from sdelab import coefficients, generator
        monkeypatch.setattr(generator, "_BLOCK", 7 * 33)
        monkeypatch.setattr(coefficients, "_MIN_SHARE", 1)
        spec = ScenarioSpec(name=name, n_paths=300, n_steps=32, diagnostics=("martingale",))
        reports = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(coefficients, "_usable_cpus", lambda: cpus)
            reports.append(report_json(run_scenario(spec)[0]))
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_martingale_diagnostic_evaluates_the_functional_once(self, monkeypatch):
        # the generator state's grid values give the Girsanov weight too
        from sdelab import PathFunctional, scenarios, simulate_x_markovian
        bundle = build_bundle(ScenarioSpec(name="path_dependent_drift", n_paths=60,
                                           n_steps=16))
        ens = simulate_x_markovian(bundle.eq, bundle.sim, bundle.x0)
        calls, real = [], PathFunctional.grid_values
        monkeypatch.setattr(PathFunctional, "grid_values",
                            lambda self, *a: calls.append(1) or real(self, *a))
        assert scenarios._diag_martingale(bundle, ens).name == "martingale"
        assert len(calls) == 1

    @pytest.mark.parametrize("name,diagnostics", (
        ("atom_jump", None), ("path_dependent_drift", None),
        ("stable_jump", ("martingale",))), ids=("atoms", "girsanov", "quadrature"))
    def test_martingale_report_independent_of_block_size(self, name, diagnostics,
                                                         monkeypatch):
        from sdelab import generator
        spec = ScenarioSpec(name=name, n_paths=300, n_steps=64, diagnostics=diagnostics)
        whole = report_json(run_scenario(spec)[0])
        for rows in (1, 7):  # 7: 43 blocks, the last short
            monkeypatch.setattr(generator, "_BLOCK", rows * (spec.n_steps + 1))
            assert report_json(run_scenario(spec)[0]) == whole, rows

    @pytest.mark.parametrize("name", ("weierstrass_drift", "atom_jump"))
    def test_report_independent_of_coefficient_and_compensator_blocks(self, name,
                                                                     monkeypatch):
        # the potential, the tables and the inversion run in blocks of
        # coefficients._CHUNK values, the compensator in row blocks of paths
        from sdelab import coefficients, simulator
        spec = ScenarioSpec(name=name, n_paths=100, n_steps=32)
        whole = report_json(run_scenario(spec)[0])
        monkeypatch.setattr(simulator, "_BLOCK", 1)  # one path per block
        for chunk in (1, 97):
            monkeypatch.setattr(coefficients, "_CHUNK", chunk)
            assert report_json(run_scenario(spec)[0]) == whole, chunk

    def test_atom_jump_peak_memory_grows_with_the_ensemble_only(self):
        # the martingale diagnostic reads the paths in row blocks, so four
        # times the paths add about the ensemble's own bytes to the peak
        # (2-core box, 2000 -> 8000 paths: 32 MB of peak RSS for 31 MB of
        # ensemble; 79 MB when the diagnostic held whole-ensemble arrays)
        code = ("import resource, sys\n"
                "import numpy as np\n"
                "from sdelab import ScenarioSpec, run_scenario\n"
                "_, ens = run_scenario(ScenarioSpec(name='atom_jump',"
                " n_paths=int(sys.argv[1]), n_steps=128))\n"
                "nbytes = sum(v.nbytes for v in vars(ens).values()"
                " if isinstance(v, np.ndarray))\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024, nbytes)\n")
        src = os.path.dirname(os.path.dirname(__import__("sdelab").__file__))
        env = {**os.environ, "PYTHONPATH": src}
        (rss0, ens0), (rss1, ens1) = [
            map(int, subprocess.run([sys.executable, "-c", code, str(n)], env=env,
                                    capture_output=True, text=True,
                                    check=True).stdout.split())
            for n in (2000, 8000)]
        assert rss1 - rss0 < 1.5 * (ens1 - ens0), (rss0, rss1, ens0, ens1)

    def test_dealt_run_adds_no_peak_memory(self):
        # the forked workers write their rows of a whole run into arrays
        # mapped shared, so dealing adds nothing to this process's peak; a
        # child holds what it inherits plus its share
        code = ("import resource, sys\n"
                "from sdelab import coefficients\n"
                "from sdelab.scenarios import ScenarioSpec, run_scenario\n"
                "coefficients._usable_cpus = lambda: int(sys.argv[1])\n"
                "run_scenario(ScenarioSpec(name='atom_jump', n_paths=4000, n_steps=256))\n"
                "print(*(resource.getrusage(who).ru_maxrss for who in"
                " (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))\n")
        src = os.path.dirname(os.path.dirname(__import__("sdelab").__file__))
        env = {**os.environ, "PYTHONPATH": src}
        peak_mb = [[int(kb) / 1024 for kb in subprocess.run(
                        [sys.executable, "-c", code, str(workers)], env=env,
                        capture_output=True, text=True, check=True).stdout.split()]
                   for workers in (1, 2)]
        (self_one, _), (self_dealt, children_dealt) = peak_mb
        assert self_dealt <= 1.05 * self_one, peak_mb
        assert 0 < children_dealt <= 1.05 * self_one, peak_mb

    @pytest.mark.skipif(not os.path.exists("/proc/self/smaps"),
                        reason="reads /proc/self/smaps")
    @pytest.mark.parametrize("workers", (2, 3), indirect=True)
    def test_caller_reads_no_worker_rows(self, workers):
        # the caller of a dealt run simulates its own share and reads only
        # its rows: the workers hand back their terminal X, the martingale
        # pasts and the terminal Girsanov weights, so no page of another
        # share's rows is mapped in here (read in the caller, the pasts,
        # terminal X and weights map all of x and dW)
        from sdelab.coefficients import _shares
        from sdelab.scenarios import run_bundle
        own, page = len(_shares(2000, 65)[0]), os.sysconf("SC_PAGE_SIZE")
        assert own < 2000
        for diagnostics in (("martingale",), ("girsanov",)):
            spec = ScenarioSpec(name="atom_jump", n_paths=2000, n_steps=64,
                                diagnostics=diagnostics)
            report, ens = run_bundle(spec, build_bundle(spec))
            assert [d.name for d in report.diagnostics] == list(diagnostics)
            for name in ("x", "dW"):
                array = getattr(ens, name)
                rows = own * array.strides[0]
                assert rows - page <= _resident_bytes(array) <= rows + 2 * page, \
                    (diagnostics, name)

    def test_whole_run_maps_only_x_dw_and_active(self, monkeypatch):
        # a run under a transform stores X alone: h(X) and h'(X) are
        # evaluated where the diagnostics read them, so the only shared
        # (paths x times) array is x
        from sdelab import simulator
        from sdelab.scenarios import run_bundle
        mapped, shared = [], simulator._shared
        monkeypatch.setattr(simulator, "_shared", lambda shape, dtype=float: (
            mapped.append((shape, np.dtype(dtype))) or shared(shape, dtype)))
        spec = ScenarioSpec(name="atom_jump", n_paths=300, n_steps=32,
                            diagnostics=("martingale",))
        bundle = build_bundle(spec)
        assert not bundle.eq.coeffs.transform.is_identity
        report, ens = run_bundle(spec, bundle)
        assert [d.name for d in report.diagnostics] == ["martingale"]
        assert mapped == [((300, 33), np.dtype(float)), ((300, 32), np.dtype(float)),
                          ((300,), np.dtype(bool))]
        assert [a.shape for a in (ens.x, ens.dW, ens.active)] == [(300, 33), (300, 32),
                                                                  (300,)]

    @pytest.mark.parametrize("name,n_paths,n_steps", (
        [(name, None, None) for name in scenario_names()]
        + [("atom_jump", 4000, 512), ("atom_jump", 10_000, 512)]))
    @pytest.mark.parametrize("cpus", (2, 3))
    def test_block_rule_whole_run_one_block_per_share(self, name, n_paths, n_steps,
                                                      cpus, monkeypatch):
        # a whole run maps its rows of X and dW shared, so a path holds
        # privately only its small-jump normals, candidates and step
        # temporaries, and each share is one block (on one CPU,
        # stable_jump's 2000 paths, 3.3 kB each, walk two)
        from sdelab import coefficients, simulator
        monkeypatch.setattr(coefficients, "_usable_cpus", lambda: cpus)
        blocks = []

        class Walked(Exception):
            pass

        def walked(task, n_paths, n_times, block):
            blocks.append((n_paths, n_times, block))
            raise Walked

        monkeypatch.setattr(simulator, "_walked", walked)
        spec = ScenarioSpec(name=name, n_paths=n_paths, n_steps=n_steps)
        bundle = build_bundle(spec)
        with pytest.raises(Walked):
            simulator.simulate_x_markovian(bundle.eq, bundle.sim, bundle.x0)
        (P, n_times, block), = blocks
        assert (P, n_times) == (bundle.sim.n_paths, bundle.sim.n_steps + 1)
        assert block >= max(len(share) for share in coefficients._shares(P, n_times))

    def test_every_requested_diagnostic_reported_once(self):
        spec = ScenarioSpec(name="brownian_baseline",
                            diagnostics=("qv", "gamma"), **SMALL)
        report, _ = run_scenario(spec)
        names = [d.name for d in report.diagnostics]
        assert names == ["qv", "gamma"]

    def test_qv_reference_sums_each_paths_jumps(self):
        # the qv diagnostic reads each row's jumps as a slice of the
        # records; its reference must equal the one summed path by path
        # over the jumps that a mask picks, bit for bit
        spec = ScenarioSpec(name="stable_jump", n_paths=200, n_steps=32,
                            diagnostics=("qv",))
        report, ens = run_scenario(spec)
        sigma = build_bundle(spec).eq.coeffs.diffusion.sigma
        rows = np.flatnonzero(ens.active)[:100]
        assert np.max(np.bincount(ens.jump_path)[rows]) >= 3
        dt = ens.times[1] - ens.times[0]
        refs = [float(np.sum(np.asarray(sigma(ens.x[i, :-1])) ** 2) * dt
                      + np.sum(ens.jump_w[ens.jump_path == i] ** 2)) for i in rows]
        details = report.diagnostics[0].details
        finest = [qv_sweep(ens.times, ens.x[i], details["epsilons"][-1:], 1.0)[0]
                  for i in rows]
        assert details["reference_mean"] == float(np.mean(refs))
        assert details["finest_mean"] == float(np.mean(finest))


class TestFailClosed:
    @pytest.mark.parametrize("name,diag", (("brownian_baseline", "martingale"),
                                           ("brownian_baseline", "girsanov"),
                                           ("brownian_baseline", "qv"),
                                           ("brownian_baseline", "gamma"),
                                           ("atom_jump", "compensator"),
                                           ("smooth_drift_crosscheck", "law"),
                                           ("brownian_baseline", "dirichlet"),
                                           ("atom_jump", "dirichlet"),
                                           ("stable_jump", "dirichlet")))
    def test_too_few_paths_is_inconclusive(self, name, diag):
        spec = ScenarioSpec(name=name, n_paths=1, n_steps=16, diagnostics=(diag,))
        report, _ = run_scenario(spec)
        d = report.diagnostics[0]
        assert d.status == "inconclusive"
        assert np.isnan(d.statistic)
        assert d.details["active_paths"] == 1
        assert report.status == "inconclusive"

    @pytest.mark.parametrize("spec, verdict, status", (
        # no big jump is read: atom_jump's one atom, at 0.1, is below the threshold 1
        (dict(name="brownian_baseline"), "inconclusive", "inconclusive"),
        (dict(name="atom_jump"), "inconclusive", "inconclusive"),
        (dict(name="stable_jump"), "consistent_with_dirichlet", "pass"),
        (dict(name="stable_jump", n_paths=200, n_steps=32),
         "consistent_with_dirichlet", "pass"),
        # the big-jump integral diverges below tail exponent 1
        (dict(name="stable_jump", params={"gamma": 0.5}), "inconsistent", "fail"),
        (dict(name="stable_jump", params={"gamma": 0.5}, n_paths=200, n_steps=32),
         "inconsistent", "fail"),
    ), ids=("brownian_baseline", "atom_jump", "stable_jump", "stable_jump_200x32",
            "stable_jump_gamma_0.5", "stable_jump_gamma_0.5_200x32"))
    def test_dirichlet_status_is_the_verdicts(self, spec, verdict, status):
        report, _ = run_scenario(ScenarioSpec(diagnostics=("dirichlet",), **spec))
        d = report.diagnostics[0]
        assert (d.details["verdict"], d.status, report.status) == (verdict, status,
                                                                    status)

    @pytest.mark.parametrize("verdict, status", (("inconsistent", "fail"),
                                                 ("inconclusive", "inconclusive"),
                                                 ("consistent_with_dirichlet", "pass")))
    def test_each_dirichlet_verdict_has_its_status(self, monkeypatch, verdict, status):
        from sdelab import scenarios
        from sdelab import DirichletReport
        monkeypatch.setattr(scenarios, "classify_dirichlet",
                            lambda growth, reference: DirichletReport(growth=growth,
                                                                      verdict=verdict))
        report, _ = run_scenario(ScenarioSpec(name="stable_jump", n_paths=200,
                                              n_steps=32, diagnostics=("dirichlet",)))
        assert report.diagnostics[0].status == status

    @pytest.mark.parametrize("gamma, inconsistent", ((0.5, True), (1.5, False)))
    def test_dirichlet_verdict_on_every_seed(self, gamma, inconsistent):
        # a divergent big-jump integral fails on every seed, an integrable
        # one on none (3 of these 10 seeds are inconclusive at 1.5)
        for seed in range(10):
            spec = ScenarioSpec(name="stable_jump", params={"gamma": gamma}, n_paths=200,
                                n_steps=32, seed=seed, diagnostics=("dirichlet",))
            verdict = run_scenario(spec)[0].diagnostics[0].details["verdict"]
            assert (verdict == "inconsistent") == inconsistent, (seed, verdict)

    def test_dirichlet_ladder_ends_at_the_active_count(self):
        from sdelab.scenarios import dirichlet_report
        spec = ScenarioSpec(name="stable_jump", n_paths=500, n_steps=32,
                            diagnostics=("dirichlet",))
        growth = run_scenario(spec)[0].diagnostics[0].details["growth"]
        assert growth["sample_sizes"] == [100, 300, 500]
        active = np.arange(250) % 10 != 3  # 225 active paths
        report = dirichlet_report(None, 0.0, 1.0, np.zeros((3, 250)), active)
        assert list(report.growth.sample_sizes) == [100, 225]
        assert report.verdict == "inconclusive"

    def test_registry_and_counterexample_share_one_route(self):
        # the same kernel, configuration and seed give the same sums, and
        # the registry's dirichlet and the counterexample read them alike
        cfg = SimConfig(horizon=1.0, n_steps=32, n_paths=700, master_seed=41)
        light = counterexample_stable(1.5, config=cfg).diagnostics[0]
        spec = ScenarioSpec(name="stable_jump", params={"gamma": 1.5}, n_paths=700,
                            n_steps=32, seed=41, diagnostics=("dirichlet",))
        registry = run_scenario(spec)[0].diagnostics[0]
        assert registry.details["growth"]["sample_sizes"] == [100, 300, 700]
        assert registry.details["growth"] == light.details["growth"]
        assert registry.details["verdict"] == light.details["verdict"]
        assert registry.statistic == light.statistic

    @pytest.mark.parametrize("gamma", (0.5, 1.5))
    def test_stable_counterexample_below_the_path_floor_is_inconclusive(self, gamma):
        from sdelab.scenarios import MIN_ACTIVE_PATHS
        for n in (10, MIN_ACTIVE_PATHS - 1):
            cfg = SimConfig(horizon=1.0, n_steps=16, n_paths=n, master_seed=41)
            report = counterexample_stable(gamma, config=cfg)
            d = report.diagnostics[0]
            assert d.status == report.status == "inconclusive"
            assert d.details["active_paths"] == n and "verdict" not in d.details
        cfg = SimConfig(horizon=1.0, n_steps=16, n_paths=MIN_ACTIVE_PATHS,
                        master_seed=41)
        d = counterexample_stable(gamma, config=cfg).diagnostics[0]
        assert d.status != "inconclusive" and "verdict" in d.details

    def test_non_converged_potential_fails_validation(self, unit_diffusion):
        from dataclasses import replace

        from sdelab import (DriftSpec, MollifierConfig, ValidationError,
                            compute_drift_potential)
        from sdelab.scenarios import _hypothesis_section
        bundle = build_bundle(ScenarioSpec(name="brownian_baseline"))
        pot = compute_drift_potential(
            DriftSpec(beta=lambda x: np.sin(8.0 * np.asarray(x, dtype=float))),
            unit_diffusion, MollifierConfig(widths=(0.2, 0.1), convergence_tol=1e-10),
            np.linspace(-2.0, 2.0, 201), strict=False)
        assert not pot.converged
        coeffs = replace(bundle.eq.coeffs, potential=pot)
        with pytest.raises(ValidationError, match="did not converge"):
            _hypothesis_section(replace(bundle, eq=replace(bundle.eq, coeffs=coeffs)))

    def test_nonfinite_statistic_is_inconclusive(self):
        from sdelab.scenarios import MIN_ACTIVE_PATHS, _z_gate
        n = MIN_ACTIVE_PATHS
        for zs in ([float("nan"), 1.0], [1.0, float("nan")], [float("inf")]):
            assert _z_gate("x", zs, 3.0, n, {}).status == "inconclusive"
        assert _z_gate("x", [1.0, 2.0], 3.0, n, {}).status == "pass"
        assert _z_gate("x", [1.0, 4.0], 3.0, n, {}).status == "fail"

    def test_fail_outranks_inconclusive(self):
        from sdelab.scenarios import DiagnosticResult, RunReport
        diags = [DiagnosticResult("a", "inconclusive", float("nan"), 3.0),
                 DiagnosticResult("b", "fail", 9.0, 3.0)]
        rep = RunReport("s", {}, 0, {}, {}, diags)
        assert rep.status == "fail"
        rep.diagnostics = diags[:1]
        assert rep.status == "inconclusive"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def report():
    spec = ScenarioSpec(name="brownian_baseline", diagnostics=("qv",), **SMALL)
    return run_scenario(spec)[0]


class TestReports:

    def test_serialization_deterministic(self, report):
        assert report_json(report) == report_json(report)

    def test_reproducible_from_spec_and_seed(self):
        spec = ScenarioSpec(name="brownian_baseline", seed=123,
                            diagnostics=("qv",), **SMALL)
        a = report_json(run_scenario(spec)[0])
        b = report_json(run_scenario(spec)[0])
        assert a == b

    def test_round_trip(self, report, tmp_path):
        path = emit_report(report, fmt="json", out_dir=str(tmp_path))
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert loaded == report.to_dict()
        assert loaded["schema_version"] == 1

    def test_csv_emission(self, report, tmp_path):
        path = emit_report(report, fmt="csv", out_dir=str(tmp_path))
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("scenario,") for line in lines)

    def test_timing_excluded_by_default(self, report):
        assert "wall_clock" not in report.to_dict()

    def test_empty_diagnostics_valid(self):
        spec = ScenarioSpec(name="brownian_baseline", diagnostics=(), **SMALL)
        report, _ = run_scenario(spec)
        assert report.to_dict()["diagnostics"] == []
        assert report.status == "pass"


class TestConfigLoading:
    def test_yaml_round_trip(self, tmp_path):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(
            "scenario:\n"
            "  name: atom_jump\n"
            "  n_paths: 123\n"
            "  seed: 5\n"
            "  diagnostics: [compensator]\n"
        )
        spec = load_spec(str(cfg))
        assert spec.name == "atom_jump"
        assert spec.n_paths == 123
        assert spec.diagnostics == ("compensator",)

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("scenario:\n  name: atom_jump\n  wat: 1\n")
        with pytest.raises(ValidationError):
            load_spec(str(cfg))


# ---------------------------------------------------------------------------
# counterexamples
# ---------------------------------------------------------------------------

def _stable_blocks(gamma, cfg, block_paths, monkeypatch):
    """Set the byte budget so that ``counterexample_stable(gamma,
    config=cfg)`` walks blocks of ``block_paths`` paths."""
    from sdelab import scenarios, simulator
    setup = scenarios._stable_setup(gamma, cfg, 0.5)
    monkeypatch.setattr(simulator, "BLOCK_BYTES",
                        block_paths * simulator._path_bytes(setup, shared=False))


class TestCounterexamples:
    def test_stable_dichotomy_small(self):
        cfg = SimConfig(horizon=1.0, n_steps=64, n_paths=2000, master_seed=41)
        heavy = counterexample_stable(0.5, config=cfg)
        light = counterexample_stable(1.5, config=cfg)
        assert heavy.diagnostics[0].details["verdict"] == "inconsistent"
        assert light.diagnostics[0].details["verdict"] == "consistent_with_dirichlet"
        assert heavy.status == "pass" and light.status == "pass"

    def test_stable_verdicts_stable_across_seeds(self):
        # classification must not flip with the random stream
        for seed in range(5):
            cfg = SimConfig(horizon=1.0, n_steps=64, n_paths=2000,
                            master_seed=100 + seed)
            heavy = counterexample_stable(0.5, config=cfg)
            light = counterexample_stable(1.5, config=cfg)
            assert heavy.diagnostics[0].details["verdict"] == "inconsistent"
            assert (light.diagnostics[0].details["verdict"]
                    == "consistent_with_dirichlet")

    @pytest.mark.parametrize("gamma", (0.5, 1.0, 1.5))
    def test_stable_reference_is_the_quadpack_integral(self, gamma, monkeypatch):
        from sdelab import scenarios
        seen, classify = [], scenarios.classify_dirichlet

        def recording_classify(growth, reference=None):
            seen.append(reference)
            return classify(growth, reference=reference)

        monkeypatch.setattr(scenarios, "classify_dirichlet", recording_classify)
        cfg = SimConfig(horizon=2.0, n_steps=16, n_paths=200, master_seed=41)
        counterexample_stable(gamma, config=cfg)
        want = counterexample_reference(gamma, scale=0.5, a=1.0, caps=(10.0, 100.0),
                                        horizon=2.0)
        assert seen[0] == pytest.approx(want, rel=1e-12, abs=0.0)
        if gamma == 0.5:  # 2 * 0.5 * 2 (sqrt(100) - 1), exactly
            assert seen[0] == 36.0

    def test_cauchy_truncated_means(self):
        rep = counterexample_cauchy(n_samples=300_000, seed=3)
        det = rep.diagnostics[0].details
        assert det["strictly_increasing"]
        # analytic curve log(1 + M^2) / pi
        for m, a in zip(det["caps"], det["analytic_curve"]):
            assert a == pytest.approx(np.log1p(m**2) / np.pi)
        assert rep.status == "pass"

    def test_cauchy_rejects_small_samples(self):
        with pytest.raises(ValidationError):
            counterexample_cauchy(n_samples=100)

    def test_stable_gamma_range_validated(self):
        with pytest.raises(ValidationError):
            counterexample_stable(2.5)

    @pytest.mark.parametrize("gamma", (0.5, 1.5))
    def test_stable_report_independent_of_block_size(self, gamma, monkeypatch):
        cfg = SimConfig(horizon=1.0, n_steps=64, n_paths=2000, master_seed=41)
        whole = report_json(counterexample_stable(gamma, config=cfg))
        _stable_blocks(gamma, cfg, 300, monkeypatch)  # 7 blocks, the last short
        assert report_json(counterexample_stable(gamma, config=cfg)) == whole

    @pytest.mark.parametrize("gamma", (0.5, 1.5))
    def test_stable_report_independent_of_worker_count(self, gamma, monkeypatch):
        from sdelab import coefficients
        cfg = SimConfig(horizon=1.0, n_steps=64, n_paths=2000, master_seed=41)
        _stable_blocks(gamma, cfg, 300, monkeypatch)  # blocks of 300, some short
        monkeypatch.setattr(coefficients, "_MIN_SHARE", 1)
        reports = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(coefficients, "_usable_cpus", lambda: cpus)
            reports.append(report_json(counterexample_stable(gamma, config=cfg)))
        assert reports[1] == reports[0] and reports[2] == reports[0]

    @pytest.mark.parametrize("gamma", (0.5, 1.5))
    def test_default_stable_report_independent_of_worker_count(self, gamma, monkeypatch):
        # the default 4000 x 64 run is dealt to up to three workers
        from sdelab import coefficients
        shares = []
        forked = coefficients._forked
        monkeypatch.setattr(coefficients, "_forked",
                            lambda task, parts: shares.append(len(parts)) or forked(task, parts))
        reports = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(coefficients, "_usable_cpus", lambda: cpus)
            reports.append(report_json(counterexample_stable(gamma)))
        assert shares == [1, 2, 3]
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_stable_peak_memory_flat_in_paths(self):
        # the ensemble is simulated and reduced a block at a time, so four
        # times the paths add only their per-path vectors (~1.5 MB here),
        # in this process and in the forked block workers alike
        code = ("import resource, sys\n"
                "from sdelab import SimConfig, counterexample_stable\n"
                "cfg = SimConfig(horizon=1.0, n_steps=64, n_paths=int(sys.argv[1]),"
                " master_seed=41)\n"
                "counterexample_stable(0.5, config=cfg)\n"
                "print(*(resource.getrusage(who).ru_maxrss for who in"
                " (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))\n")
        src = os.path.dirname(os.path.dirname(__import__("sdelab").__file__))
        env = {**os.environ, "PYTHONPATH": src}
        peak_mb = [[int(kb) / 1024 for kb in subprocess.run(
                        [sys.executable, "-c", code, str(n)], env=env,
                        capture_output=True, text=True, check=True).stdout.split()]
                   for n in (16_000, 64_000)]
        (self_16k, children_16k), (self_64k, children_64k) = peak_mb
        assert abs(self_64k - self_16k) < 10.0, peak_mb
        assert abs(children_64k - children_16k) < 10.0, peak_mb

    @pytest.mark.parametrize("gamma", (0.5, 1.5))
    def test_block_rule_counterexample_within_budget(self, gamma, monkeypatch):
        # a blocked path holds its rows of X and dW, its small-jump normals
        # under gaussian_match, its candidates and its step temporaries, so
        # a run walks blocks of as many paths as fit in BLOCK_BYTES, and
        # one process that walks three of them and reduces each holds no
        # more than the budget (tracemalloc: the output arrays are mapped)
        import tracemalloc
        from sdelab import coefficients, scenarios, simulator
        monkeypatch.setattr(coefficients, "_usable_cpus", lambda: 1)
        setup = scenarios._stable_setup(gamma, scenarios.COUNTEREXAMPLE_STABLE_CONFIG, 0.5)
        block = simulator.BLOCK_BYTES // simulator._path_bytes(setup, shared=False)
        assert block >= (1900 if gamma < 1.0 else 1000)
        cfg = SimConfig(horizon=1.0, n_steps=64, n_paths=3 * block + 17, master_seed=41)
        ranges, simulate_y = [], simulator.simulate_y
        with monkeypatch.context() as m:
            m.setattr(simulator, "simulate_y", lambda setup, paths: (
                ranges.append(paths) or simulate_y(setup, paths=paths)))
            counterexample_stable(gamma, config=cfg)
        assert [len(r) for r in ranges] == [block] * 3 + [17]
        tracemalloc.start()
        try:
            counterexample_stable(gamma, config=cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= simulator.BLOCK_BYTES, (peak, block)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM in /proc/self/status")
    def test_stable_caller_memory_and_replies_flat_in_paths(self):
        # each block writes its per-path reductions in place into arrays
        # mapped shared before the fork, so the caller holds one block plus
        # those arrays (33 bytes a path), and a worker sends back two small
        # integers per block and no per-path data (2-core box, 64 000
        # paths: the caller's peak rose 20.1 MB over its baseline, and the
        # worker's reply took 1.06 MB, when 8192-path blocks sent back their
        # reductions).  The peak is VmHWM, which starts afresh at exec;
        # ru_maxrss would carry over the peak of the process that forked it
        code = ("import pickle, sys\n"
                "import numpy as np\n"
                "from sdelab import SimConfig, coefficients, counterexample_stable,"
                " simulator\n"
                "def peak_mb():\n"
                "    with open('/proc/self/status') as fh:\n"
                "        return next(int(line.split()[1]) for line in fh\n"
                "                    if line.startswith('VmHWM:')) / 1024\n"
                "coefficients._usable_cpus = lambda: 2\n"
                "forked, sizes = coefficients._forked, simulator._shared((2,), np.int64)\n"
                "def spy(task, shares):\n"
                "    def sized(share):\n"
                "        out = task(share)\n"
                "        sizes[shares.index(share)] = len(pickle.dumps(out))\n"
                "        return out\n"
                "    return forked(sized, shares)\n"
                "coefficients._forked = spy\n"
                "cfg = SimConfig(horizon=1.0, n_steps=64, n_paths=64_000, master_seed=41)\n"
                "base = peak_mb()\n"
                "counterexample_stable(0.5, config=cfg)\n"
                "print(peak_mb() - base, sizes[1])\n")
        src = os.path.dirname(os.path.dirname(__import__("sdelab").__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=600).stdout.split()
        rise_mb, reply = float(out[0]), int(out[1])
        assert rise_mb < 12.0, out
        assert 0 < reply < 1024, out


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "sdelab.cli", *args],
                          capture_output=True, text=True, env=env)


class TestCLI:
    def test_run_brownian_exit_zero(self, tmp_path):
        r = run_cli(["run", "--name", "brownian_baseline", "--paths", "400",
                     "--steps", "64", "--out", str(tmp_path)])
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "report_brownian_baseline.json").exists()

    def test_validation_exit_two(self, tmp_path):
        r = run_cli(["run", "--config", "/nonexistent.yaml", "--out",
                     str(tmp_path)])
        assert r.returncode != 0
        r2 = run_cli(["check-kernel", "--name", "brownian_baseline", "--out",
                      str(tmp_path)])
        assert r2.returncode == 2  # no kernel in that scenario

    @pytest.mark.parametrize("argv, config, code, message", (
        (["run", "--name", "brownian_baseline", "--out", "{tmp}/afile"], None, 3,
         "io error: cannot use output directory"),
        (["run", "--name", "brownian_baseline", "--out", "{tmp}/afile/sub"], None, 3,
         "io error: cannot use output directory"),
        (["simulate", "--name", "brownian_baseline", "--paths", "50", "--steps", "8",
          "--out", "{tmp}/taken"], None, 3, "io error: could not write"),
        (["run", "--config", "/nonexistent.yaml"], None, 3,
         "io error: cannot read configuration"),
        (["run", "--config", "{tmp}/s.yaml"], "scenario: [\n", 2, "is not valid YAML"),
        (["run", "--config", "{tmp}/s.yaml"], b"\xff\xfe\x00", 2, "is not valid YAML"),
        (["run", "--config", "{tmp}/s.yaml"], "scenario:\n  name: smooth_drift_crosscheck\n"
         "  n_paths: 400\n  n_steps: 32\n  diagnostics: [crosscheck_euler]\n", 2,
         "unknown diagnostics: ['crosscheck_euler']"),
        # inside the domain, but outside the range shrunk by the atom's support
        (["run", "--config", "{tmp}/s.yaml"], "scenario:\n  name: atom_jump\n"
         "  n_paths: 50\n  n_steps: 8\n  x0: 7.95\n", 3,
         "initial state outside the effective range"),
        *((["run", "--config", "{tmp}/s.yaml"], f"scenario:\n  name: {name}\n"
           "  n_paths: 50\n  n_steps: 8\n  diagnostics: [compensator]\n", 2,
           "the compensator diagnostic needs a jump kernel")
          for name in ("brownian_baseline", "smooth_drift_crosscheck",
                       "weierstrass_drift", "path_dependent_drift")),
        # the exact law reference of `law` has no jumps
        *((["run", "--config", "{tmp}/s.yaml"], f"scenario:\n  name: {name}\n"
           "  n_paths: 50\n  n_steps: 8\n  diagnostics: [law]\n", 2,
           "the law diagnostic needs no jump kernel")
          for name in ("atom_jump", "stable_jump")),
        # a power tail has no second route: the conjugation would check nothing
        (["run", "--config", "{tmp}/s.yaml"], "scenario:\n  name: stable_jump\n"
         "  diagnostics: [conjugation]\n", 2,
         "the conjugation diagnostic needs a kernel with atoms"),
        # each command registers only the options it reads
        (["check-kernel", "--name", "atom_jump", "--seed", "3"], None, 2,
         "unrecognized arguments: --seed 3"),
        (["simulate", "--name", "brownian_baseline", "--format", "csv"], None, 2,
         "unrecognized arguments: --format csv"),
        (["counterexample", "cauchy", "--name", "atom_jump"], None, 2,
         "unrecognized arguments: --name atom_jump"),
    ), ids=("out_is_a_file", "out_under_a_file", "csv_is_a_directory", "missing_config",
            "unparseable_yaml", "binary_config", "crosscheck_euler_is_unknown",
            "x0_near_the_edge", "compensator_without_kernel[brownian_baseline]",
            "compensator_without_kernel[smooth_drift_crosscheck]",
            "compensator_without_kernel[weierstrass_drift]",
            "compensator_without_kernel[path_dependent_drift]",
            "crosscheck_with_jumps[atom_jump]", "crosscheck_with_jumps[stable_jump]",
            "conjugation_on_a_power_tail", "check_kernel_seed", "simulate_format", "counterexample_name"))
    def test_bad_input_fails_closed_without_traceback(self, tmp_path, argv, config,
                                                      code, message):
        (tmp_path / "afile").write_text("")
        (tmp_path / "taken" / "paths.csv").mkdir(parents=True)
        if isinstance(config, bytes):
            (tmp_path / "s.yaml").write_bytes(config)
        elif config is not None:
            (tmp_path / "s.yaml").write_text(config)
        argv = [a.format(tmp=tmp_path) for a in argv]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "out")]
        r = run_cli(argv)
        assert r.returncode == code, r.stderr
        assert message in r.stderr and "Traceback" not in r.stderr, r.stderr

    def test_simulate_writes_path_csv(self, tmp_path):
        r = run_cli(["simulate", "--name", "atom_jump", "--paths", "50",
                     "--steps", "64", "--out", str(tmp_path),
                     "--dump-paths", "3"])
        assert r.returncode == 0, r.stderr
        lines = (tmp_path / "paths.csv").read_text().splitlines()
        assert lines[0] == "path_id,t,Y,X,jump_flag,jump_size"
        assert len(lines) == 1 + 3 * 65
        # every cell parses as a plain number
        for line in lines[1:]:
            for cell in line.split(","):
                float(cell)

    def test_path_csv_y_is_h_of_x(self, tmp_path):
        # the Y column is h(X) of the inverted rows, which is within the
        # inverse's residual tolerance 1e-10 (1 + |Y|) of the simulated Y
        import sdelab.cli as cli
        from sdelab import build_characteristics, engine_setup, simulate_x_markovian
        assert cli.main(["simulate", "--name", "atom_jump", "--paths", "50",
                         "--steps", "64", "--out", str(tmp_path),
                         "--dump-paths", "3"]) == 0
        lines = (tmp_path / "paths.csv").read_text().splitlines()
        cols = np.asarray([[float(v) for v in ln.split(",")] for ln in lines[1:]]).T
        y, x = (c.reshape(3, 65) for c in cols[2:4])
        bundle = build_bundle(ScenarioSpec(name="atom_jump", n_paths=50, n_steps=64))
        ens = simulate_x_markovian(bundle.eq, bundle.sim, bundle.x0)
        transform = bundle.eq.coeffs.transform
        assert np.array_equal(x, ens.x[:3]) and np.array_equal(y, transform.forward(x))
        y_sim = simulated_y(engine_setup(build_characteristics(bundle.eq), bundle.sim,
                                         float(transform.forward(np.asarray(bundle.x0)))))
        assert np.all(np.abs(y - y_sim[:3]) <= 1e-10 * (1.0 + np.abs(y_sim[:3])))
        assert not np.array_equal(y, x)

    def test_check_coefficients(self, tmp_path):
        r = run_cli(["check-coefficients", "--name", "smooth_drift_crosscheck",
                     "--out", str(tmp_path)])
        assert r.returncode == 0, r.stderr
        head = (tmp_path / "coefficients_smooth_drift_crosscheck.csv"
                ).read_text().splitlines()[0]
        assert head == "x,sigma_value,h,hprime"

    def test_check_kernel_csv(self, tmp_path):
        r = run_cli(["check-kernel", "--name", "atom_jump", "--out",
                     str(tmp_path)])
        assert r.returncode == 0, r.stderr
        head = (tmp_path / "kernel_atom_jump.csv").read_text().splitlines()[0]
        assert head == "y,moment,m1,m2,tv_modulus"

    def test_counterexample_cauchy_cli(self, tmp_path):
        r = run_cli(["counterexample", "cauchy", "--samples", "50000",
                     "--out", str(tmp_path)])
        assert r.returncode in (0, 1)
        assert (tmp_path / "report_counterexample_cauchy.json").exists()

    def test_env_var_output_dir(self, tmp_path):
        r = run_cli(["qv", "--name", "brownian_baseline", "--paths", "100",
                     "--steps", "64"], env_extra={"SDELAB_OUT": str(tmp_path)})
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "qv_brownian_baseline.csv").exists()

    def test_exit_one_on_diagnostic_failure(self, tmp_path, monkeypatch):
        import sdelab.cli as cli
        from sdelab.scenarios import DiagnosticResult

        def fake_run(spec, bundle, t0=None):
            rep, ens = run_scenario(ScenarioSpec(name="brownian_baseline",
                                                 diagnostics=(), **SMALL))
            rep.diagnostics.append(DiagnosticResult("martingale", "fail", 9.0, 3.0))
            return rep, ens

        monkeypatch.setattr(cli, "run_bundle", fake_run)
        code = cli.main(["run", "--name", "brownian_baseline",
                         "--out", str(tmp_path), "--dump-paths", "0"])
        assert code == 1

    def test_exit_three_on_numeric_failure(self, tmp_path, monkeypatch):
        import sdelab.cli as cli
        from sdelab import NonConvergent

        def explode(spec):
            raise NonConvergent("mollification levels diverged")

        monkeypatch.setattr(cli, "build_bundle", explode)
        code = cli.main(["run", "--name", "brownian_baseline",
                         "--out", str(tmp_path)])
        assert code == 3

    def test_single_path_run_exits_one(self, tmp_path):
        import sdelab.cli as cli
        code = cli.main(["run", "--name", "brownian_baseline", "--paths", "1",
                         "--out", str(tmp_path), "--dump-paths", "0"])
        assert code == 1
        doc = json.loads((tmp_path / "report_brownian_baseline.json").read_text())
        mart = next(d for d in doc["diagnostics"] if d["name"] == "martingale")
        assert mart["status"] == "inconclusive"
        assert doc["status"] != "pass"

    @pytest.mark.parametrize("argv", (["dirichlet", "--name", "stable_jump"],
                                      ["counterexample", "stable"],
                                      ["counterexample", "stable", "--gamma", "1.5"]))
    def test_too_few_paths_exits_one(self, tmp_path, argv):
        import sdelab.cli as cli
        assert cli.main(argv + ["--paths", "10", "--steps", "16",
                                "--out", str(tmp_path)]) == 1

    def test_single_path_qv_and_gamma_inconclusive(self, tmp_path):
        import warnings
        import sdelab.cli as cli
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["run", "--name", "brownian_baseline", "--paths", "1",
                             "--steps", "16", "--out", str(tmp_path),
                             "--dump-paths", "0"])
        assert code == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        doc = json.loads((tmp_path / "report_brownian_baseline.json").read_text())
        status = {d["name"]: d["status"] for d in doc["diagnostics"]}
        assert status["qv"] == status["gamma"] == "inconclusive"

    @pytest.mark.parametrize("argv", (
        ["run", "--name", "brownian_baseline", "--paths", "0"],
        ["run", "--name", "brownian_baseline", "--steps", "0"],
        ["counterexample", "stable", "--paths", "0"],
        ["counterexample", "stable", "--steps", "0"],
    ))
    def test_zero_sizes_exit_two(self, tmp_path, argv):
        import sdelab.cli as cli
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv", (
        ["run", "--name", "brownian_baseline", "--paths", "50", "--steps", "8",
         "--seed", "-1"],
        ["counterexample", "stable", "--steps", "8", "--seed", "-3"],
        ["counterexample", "cauchy", "--samples", "10000", "--seed", "-3"],
    ))
    def test_negative_seed_exits_two(self, tmp_path, argv, capsys):
        import sdelab.cli as cli
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ("simulate", "verify-martingale", "qv", "run"))
    def test_negative_dump_paths_exits_two(self, tmp_path, command, capsys):
        import sdelab.cli as cli
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--name", "brownian_baseline", "--paths", "40",
                      "--steps", "16", "--dump-paths", "-3", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--dump-paths" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())  # rejected before any simulation

    def test_non_integer_yaml_seed_exits_two(self, tmp_path):
        import sdelab.cli as cli
        cfg = tmp_path / "seed.yaml"
        cfg.write_text("scenario:\n  name: brownian_baseline\n  seed: 1.5\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("sizes", ("n_paths: 40.7\n  n_steps: 16",
                                       "n_paths: 40\n  n_steps: 16.9",
                                       "n_paths: true\n  n_steps: 16"))
    def test_non_integer_yaml_sizes_exit_two(self, tmp_path, sizes, capsys):
        import sdelab.cli as cli
        cfg = tmp_path / "sizes.yaml"
        cfg.write_text(f"scenario:\n  name: brownian_baseline\n  {sizes}\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ("horizon: .nan", "horizon: .inf", "horizon: 'abc'",
                                       "horizon: true", "x0: 'abc'", "x0: true",
                                       "x0: .nan"))
    def test_bad_yaml_horizon_or_x0_exits_two(self, tmp_path, entry, capsys):
        import sdelab.cli as cli
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("scenario:\n  name: brownian_baseline\n  n_paths: 50\n"
                       f"  n_steps: 8\n  {entry}\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert entry.split(":")[0] + " must be a finite" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", (
        ("scenario: [name]\n", "'scenario' mapping"),
        ("scenario: brownian_baseline\n", "'scenario' mapping"),
        ("  diagnostics: 5\n", "diagnostics must list names"),
        ("  diagnostics: martingale\n", "diagnostics must list names"),
        ("  diagnostics: [martingale, 3]\n", "diagnostics must list names"),
        ("  params: 5\n", "params must be a mapping"),
        ("  params: [1, 2]\n", "params must be a mapping"),
    ))
    def test_malformed_yaml_section_exits_two(self, tmp_path, doc, message, capsys):
        import sdelab.cli as cli
        if doc.startswith("  "):
            doc = ("scenario:\n  name: brownian_baseline\n  n_paths: 50\n"
                   "  n_steps: 8\n" + doc)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(doc)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    def test_verify_martingale_writes_girsanov_weights(self, tmp_path, monkeypatch):
        import sdelab.cli as cli
        from sdelab import scenarios
        from sdelab.generator import girsanov_weight
        from sdelab.simulator import simulate_x_markovian
        calls = []

        def counted(spec):
            calls.append(spec.name)
            return build_bundle(spec)
        monkeypatch.setattr(cli, "build_bundle", counted)
        monkeypatch.setattr(scenarios, "build_bundle", counted)
        cli.main(["verify-martingale", "--name", "path_dependent_drift",
                  "--paths", "60", "--steps", "16", "--dump-paths", "3",
                  "--out", str(tmp_path)])
        assert calls == ["path_dependent_drift"]
        lines = (tmp_path / "residuals_path_dependent_drift.csv").read_text().splitlines()
        assert lines[0] == "path_id,t,M_f,kappa_T"
        rows = np.asarray([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert len(rows) == 3 * 17
        bundle = build_bundle(ScenarioSpec(name="path_dependent_drift", n_paths=60,
                                           n_steps=16))
        eq = bundle.eq
        ens = simulate_x_markovian(eq, bundle.sim, bundle.x0)
        h = eq.functional.grid_values(ens.times, ens.x)
        kappa = girsanov_weight(ens.times, h, ens.dW)[:, -1]
        for i in range(3):
            assert np.all(rows[rows[:, 0] == i, 3] == kappa[i])
        assert len(set(rows[:, 3])) == 3 and not np.all(rows[:, 3] == 1.0)

    @pytest.mark.parametrize("name", ("atom_jump", "path_dependent_drift",
                                      "stable_jump"))
    def test_verify_martingale_rows_equal_full_ensemble(self, tmp_path, name):
        # the CLI evaluates the written rows only; they must equal the same
        # rows of the residuals and weights of the whole ensemble, as the
        # martingale diagnostic reads them (stable_jump: the jump term's
        # table comes from all states, not from the written rows)
        import sdelab.cli as cli
        from sdelab.generator import jump_tables, martingale_columns
        from sdelab.scenarios import standard_profiles
        from sdelab.simulator import simulate_x_markovian
        cli.main(["verify-martingale", "--name", name, "--paths", "60",
                  "--steps", "16", "--dump-paths", "3", "--out", str(tmp_path)])
        lines = (tmp_path / f"residuals_{name}.csv").read_text().splitlines()
        rows = np.asarray([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        bundle = build_bundle(ScenarioSpec(name=name, n_paths=60, n_steps=16))
        eq = bundle.eq
        ens = simulate_x_markovian(eq, bundle.sim, bundle.x0)
        profiles = standard_profiles()[:1]
        M, kappa, _ = martingale_columns(eq, ens, profiles, np.arange(len(ens.times)),
                                         jump_tables(eq, profiles, ens.x))
        kappa = np.ones(ens.n_paths) if kappa is None else kappa
        want = np.column_stack((np.repeat(np.arange(3), 17), np.tile(ens.times, 3),
                                M[0, :3].ravel(), np.repeat(kappa[:3], 17)))
        assert np.array_equal(rows, want)

    def test_verify_martingale_tabulates_each_profile_once(self, tmp_path, monkeypatch):
        # the written rows read the diagnostic's jump-term table, not a second one
        import sdelab.cli as cli
        from sdelab import generator
        from sdelab.scenarios import standard_profiles
        made = []

        def counted(f, eq, x):
            made.append(f.name)
            return table(f, eq, x)
        table = generator._jump_table
        monkeypatch.setattr(generator, "_jump_table", counted)
        cli.main(["verify-martingale", "--name", "stable_jump", "--paths", "60",
                  "--steps", "16", "--dump-paths", "3", "--out", str(tmp_path)])
        assert made == [f.name for f in standard_profiles()]

    def test_verify_martingale_weight_is_one_without_functional(self, tmp_path):
        import sdelab.cli as cli
        cli.main(["verify-martingale", "--name", "brownian_baseline", "--paths", "40",
                  "--steps", "8", "--dump-paths", "2", "--out", str(tmp_path)])
        lines = (tmp_path / "residuals_brownian_baseline.csv").read_text().splitlines()
        assert lines[0] == "path_id,t,M_f,kappa_T"
        assert all(ln.split(",")[3] == "1.0" for ln in lines[1:])

    def test_counterexample_seed_applies_without_paths(self, tmp_path):
        import sdelab.cli as cli
        cli.main(["counterexample", "stable", "--gamma", "1.5", "--steps", "8",
                  "--seed", "5", "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "report_counterexample_stable.json").read_text())
        assert doc["seed"] == 5
        assert doc["simulation"]["n_steps"] == 8

    def test_out_of_range_parameter_exits_two(self, tmp_path):
        import sdelab.cli as cli
        cfg = tmp_path / "stable.yaml"
        cfg.write_text("scenario:\n  name: stable_jump\n  params:\n"
                       "    gamma: 2.5\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("value", ("abc", "nan", "inf"))
    def test_bad_constant_functional_exits_two(self, tmp_path, value, capsys):
        import sdelab.cli as cli
        cfg = tmp_path / "const.yaml"
        cfg.write_text("scenario:\n  name: path_dependent_drift\n  n_paths: 50\n"
                       f"  n_steps: 8\n  params:\n    functional: 'const:{value}'\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "finite real" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", (".nan", ".inf", "-1.0"))
    def test_bad_stable_scale_exits_two(self, tmp_path, scale, capsys):
        import sdelab.cli as cli
        cfg = tmp_path / "scale.yaml"
        cfg.write_text("scenario:\n  name: stable_jump\n  n_paths: 50\n"
                       f"  n_steps: 8\n  params:\n    scale: {scale}\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "scale must be finite and positive" in capsys.readouterr().err

    def test_verify_martingale_without_rows(self, tmp_path):
        # no residual rows: the header alone, and the exit code of the report
        import sdelab.cli as cli
        code = cli.main(["verify-martingale", "--name", "stable_jump", "--paths", "300",
                         "--steps", "32", "--dump-paths", "0", "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "report_stable_jump.json").read_text())
        assert code == (0 if doc["status"] == "pass" else 1)
        assert (tmp_path / "residuals_stable_jump.csv").read_text() == (
            "path_id,t,M_f,kappa_T\n")

    def test_csv_format_flag(self, tmp_path):
        r = run_cli(["run", "--name", "brownian_baseline", "--paths", "200",
                     "--steps", "64", "--out", str(tmp_path),
                     "--format", "csv", "--dump-paths", "0"])
        assert r.returncode == 0, r.stderr
        head = (tmp_path / "report_brownian_baseline.csv"
                ).read_text().splitlines()[0]
        assert head == "key,value"
