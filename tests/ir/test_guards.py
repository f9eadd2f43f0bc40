"""The numerical trust layer: sentinels, diagnostics, shadow verification."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.engine import cache_override, faults, get_registry
from repro.errors import NumericalTrustError, SingularGeneratorError
from repro.ir import MarkovIR, ReactionIR, guards, solve

from tests.ir.test_reaction_ir import birth_death_ir
from tests.ir.test_registry import weighted_ring_ir


def ring_ir(n: int = 4, rate: float = 1.0) -> MarkovIR:
    rows = list(range(n))
    cols = [(i + 1) % n for i in range(n)]
    Q = sp.coo_matrix((np.full(n, rate), (rows, cols)), shape=(n, n)).tolil()
    Q.setdiag(-rate)
    return MarkovIR(generator=Q.tocsr())


def conserving_ir(total: float = 10.0) -> ReactionIR:
    """A <-> B: conserves A + B exactly."""

    class Flip:
        def __call__(self, x):
            return np.array([1.0 * x[0], 2.0 * x[1]])

    return ReactionIR(
        species=("A", "B"),
        initial=np.array([total, 0.0]),
        stoichiometry=np.array([[-1.0, 1.0], [1.0, -1.0]]),
        reaction_names=("fwd", "rev"),
        propensities=Flip(),
        token=("flip", total),
    )


def counter(name: str) -> int:
    return get_registry().snapshot()["counters"].get(name, 0)


class TestSentinels:
    def test_clean_solve_attaches_diagnostics(self):
        # Only an LU-served result carries a condition estimate.
        ir = ring_ir()
        result = solve(ir, "steady", backend="sparse")
        d = result.meta["diagnostics"]
        assert d["capability"] == "steady"
        assert d["residual"] <= 1e-10
        assert d["condition_estimate"] is not None
        assert d["n_states"] == 4
        assert guards.last_diagnostics() is d

    def test_steady_off_simplex_is_rejected(self):
        ir = ring_ir()
        bad = SimpleNamespace(pi=np.array([0.5, 0.5, 0.5, 0.5]), meta={})
        with pytest.raises(NumericalTrustError, match="simplex") as info:
            guards.verify("steady", "sparse", ir, bad, {})
        assert info.value.invariant == "simplex"
        assert info.value.backend == "sparse"

    def test_steady_bad_residual_is_rejected(self):
        # On the simplex, but not the equilibrium of this ring.
        ir = ring_ir()
        bad = SimpleNamespace(pi=np.array([0.7, 0.1, 0.1, 0.1]), meta={})
        with pytest.raises(NumericalTrustError, match="pi@Q"):
            guards.verify("steady", "sparse", ir, bad, {})

    def test_steady_nan_is_rejected(self):
        ir = ring_ir()
        bad = SimpleNamespace(pi=np.array([np.nan, 0.5, 0.25, 0.25]), meta={})
        with pytest.raises(NumericalTrustError, match="NaN"):
            guards.verify("steady", "sparse", ir, bad, {})

    def test_transient_negative_probability_is_rejected(self):
        ir = ring_ir()
        bad = np.array([[1.0, 0.0, 0.0, 0.0], [1.01, -0.01, 0.0, 0.0]])
        with pytest.raises(NumericalTrustError, match="negative transient"):
            guards.verify(
                "transient", "uniformization", ir, bad,
                {"times": np.array([0.0, 1.0])},
            )

    def test_passage_nonmonotone_cdf_is_rejected(self):
        ir = ring_ir()
        bad = SimpleNamespace(
            cdf=np.array([0.0, 0.4, 0.3]), mean=1.0, meta={}
        )
        with pytest.raises(NumericalTrustError, match="decreases"):
            guards.verify(
                "passage", "uniformization", ir, bad,
                {"times": np.array([0.0, 0.5, 1.0])},
            )

    def test_passage_cdf_above_one_is_rejected(self):
        ir = ring_ir()
        bad = SimpleNamespace(
            cdf=np.array([0.0, 0.5, 1.5]), mean=1.0, meta={}
        )
        with pytest.raises(NumericalTrustError, match=r"\[0, 1\]"):
            guards.verify(
                "passage", "uniformization", ir, bad,
                {"times": np.array([0.0, 0.5, 1.0])},
            )

    def test_ode_negative_species_is_rejected(self):
        ir = birth_death_ir()
        bad = np.array([[5.0], [-0.5]])
        with pytest.raises(NumericalTrustError, match="drops to"):
            guards.verify("ode", "scipy", ir, bad, {})

    def test_ode_conservation_drift_is_rejected(self):
        ir = conserving_ir(10.0)
        bad = np.array([[10.0, 0.0], [6.0, 3.0]])  # total drops to 9
        with pytest.raises(NumericalTrustError, match="conserv"):
            guards.verify("ode", "scipy", ir, bad, {})

    def test_ssa_conservation_drift_is_rejected(self):
        ir = conserving_ir(10.0)
        bad = SimpleNamespace(
            counts=np.array([[10.0, 0.0], [9.0, 2.0]]), n_events=1, meta={}
        )
        with pytest.raises(NumericalTrustError, match="conserv"):
            guards.verify("ssa", "direct", ir, bad, {})

    def test_corrupt_generator_is_rejected(self):
        Q = sp.csr_matrix(np.array([[-1.0, 2.0], [1.0, -1.0]]))
        ir = MarkovIR.__new__(MarkovIR)  # bypass __post_init__ row checks
        object.__setattr__(ir, "generator", Q)
        object.__setattr__(ir, "initial_index", 0)
        ok = SimpleNamespace(pi=np.array([0.5, 0.5]), meta={})
        with pytest.raises(NumericalTrustError, match="rows sum"):
            guards.verify("steady", "sparse", ir, ok, {})

    def test_violation_metrics_and_token(self):
        ir = conserving_ir(7.0)
        before = counter("ir.trust.sentinel_violation")
        bad = np.array([[7.0, 0.0], [1.0, 1.0]])
        with pytest.raises(NumericalTrustError) as info:
            guards.verify("ode", "scipy", ir, bad, {})
        assert counter("ir.trust.sentinel_violation") == before + 1
        assert counter("ir.trust.violation.conservation") >= 1
        assert info.value.token == ("flip", 7.0)
        assert info.value.capability == "ode"


class TestDegenerateModels:
    def test_absorbing_ctmc_steady_errors_cleanly(self):
        Q = sp.csr_matrix(np.array([[-1.0, 1.0], [0.0, 0.0]]))
        ir = MarkovIR(generator=Q)
        with pytest.raises(SingularGeneratorError, match="absorbing"):
            solve(ir, "steady")

    def test_empty_reaction_network(self):
        class NoRx:
            def __call__(self, x):
                return np.empty(0)

        ir = ReactionIR(
            species=("X",),
            initial=np.array([3.0]),
            stoichiometry=np.empty((1, 0)),
            reaction_names=(),
            propensities=NoRx(),
            token="empty-net",
        )
        grid = np.linspace(0.0, 1.0, 5)
        traj = solve(ir, "ode", times=grid)
        assert np.allclose(traj, 3.0)
        path = solve(ir, "ssa", times=grid, seed=0)
        assert np.allclose(path.counts, 3.0)

    def test_zero_duration_passage_query(self):
        ir = ring_ir()
        result = solve(ir, "passage", targets=[2], times=np.array([0.0]))
        assert result.cdf.shape == (1,)
        assert result.cdf[0] == pytest.approx(0.0)


def fast_target_ir() -> MarkovIR:
    """0 -> 1 -> 2 -> 0 with the fastest exit at the passage target 2,
    so the absorbed chain uniformizes at a lower rate than the whole."""
    Q = sp.lil_matrix((3, 3))
    for s, t, rate in ((0, 1, 1.0), (1, 2, 2.0), (2, 0, 50.0)):
        Q[s, t] = rate
        Q[s, s] = -rate
    return MarkovIR(generator=Q.tocsr())


class TestTruncationDiagnostics:
    """The reported truncation is the one the uniformization solve ran
    with, taken from the solve on a miss and planned again on a hit.  On
    seven points the sweep costs less than stepping; the 200-point grid
    steps."""

    TRUNCATION = (
        "kernel", "uniformization_rate", "poisson_mean", "truncation_k", "truncation_mass",
    )

    @pytest.fixture
    def spies(self, monkeypatch):
        from repro.numerics import diagnostics, transient

        swept, searched = [], []
        weights = transient.uniformization_weights
        search = diagnostics.poisson_truncation_point

        def spy_weights(ms, epsilon):
            out = weights(ms, epsilon)
            swept.append(out[3])
            return out

        def spy_search(m, epsilon):
            searched.append(m)
            return search(m, epsilon)

        monkeypatch.setattr(transient, "uniformization_weights", spy_weights)
        monkeypatch.setattr(diagnostics, "poisson_truncation_point", spy_search)
        return swept, searched

    def truncation(self):
        d = guards.last_diagnostics()
        return {key: d[key] for key in self.TRUNCATION}

    @pytest.mark.parametrize("capability", ["passage", "transient"])
    def test_hit_and_miss_report_the_sweeps_truncation(self, spies, capability):
        swept, searched = spies
        ir = fast_target_ir()
        grid = np.linspace(0.0, 3.0, 7)
        params = {"targets": [2]} if capability == "passage" else {}
        reports = []
        with cache_override(True):
            for expected in ("miss", "hit"):
                result = solve(ir, capability, times=grid, epsilon=1e-10, **params)
                if capability == "passage":
                    assert result.meta["cache"] == expected
                reports.append(self.truncation())
        assert reports[0] == reports[1]
        assert swept == [reports[0]["truncation_k"]]
        assert len(searched) == 1  # the hit only
        rate = 1.02 * (2.0 if capability == "passage" else 50.0)
        assert reports[0]["uniformization_rate"] == pytest.approx(rate)
        assert reports[0]["poisson_mean"] == pytest.approx(3.0 * rate)
        assert reports[0]["truncation_mass"] == 1e-10

    def test_dense_backend_reports_what_a_sweep_would_use(self):
        ir = fast_target_ir()
        grid = np.linspace(0.0, 3.0, 7)
        with cache_override(False):
            reports = []
            for name in ("uniformization", "expm"):
                solve(ir, "passage", targets=[2], times=grid, backend=name)
                reports.append(self.truncation())
        assert reports[0] == reports[1]
        assert reports[0]["kernel"] == "sweep"

    @pytest.fixture
    def steps(self, monkeypatch):
        from repro.numerics import transient

        stepped, planned = [], []
        step, weights = transient._stepped, transient.poisson_weights

        def spy_step(*args):
            stepped.append(args[3])
            return step(*args)

        def spy_weights(m, epsilon):
            planned.append(m)
            return weights(m, epsilon)

        monkeypatch.setattr(transient, "_stepped", spy_step)
        monkeypatch.setattr(transient, "poisson_weights", spy_weights)
        return stepped, planned

    def test_hit_and_miss_report_the_stepped_truncation(self, spies, steps):
        swept, searched = spies
        stepped, planned = steps
        ir = fast_target_ir()
        grid = np.linspace(0.0, 3.0, 200)
        reports = []
        with cache_override(True):
            for expected in ("miss", "hit"):
                result = solve(ir, "passage", targets=[2], times=grid, epsilon=1e-10)
                assert result.meta["cache"] == expected
                reports.append(self.truncation())
        assert reports[0] == reports[1]
        assert stepped == [200] and swept == []
        assert len(planned) == 2 and searched == []  # miss and hit plan once each
        rate = 1.02 * 2.0
        assert reports[0]["kernel"] == "stepped"
        assert reports[0]["uniformization_rate"] == pytest.approx(rate)
        assert reports[0]["poisson_mean"] == pytest.approx(3.0 / 199 * rate)
        assert reports[0]["truncation_mass"] == 1e-10

    def test_dense_backend_reports_what_the_stepped_solve_noted(self):
        ir = fast_target_ir()
        grid = np.linspace(0.0, 3.0, 200)
        with cache_override(False):
            reports = []
            for name in ("uniformization", "expm"):
                solve(ir, "passage", targets=[2], times=grid, backend=name)
                reports.append(self.truncation())
        assert reports[0] == reports[1]
        assert reports[0]["kernel"] == "stepped"

    def test_revision_one_hit_reports_the_sweep(self, spies):
        from repro.ir.registry import pinned_revision

        swept, _searched = spies
        ir = fast_target_ir()
        grid = np.linspace(0.0, 3.0, 200)
        reports = []
        with cache_override(True), pinned_revision("passage", "uniformization", 1):
            for expected in ("miss", "hit"):
                result = solve(ir, "passage", targets=[2], times=grid)
                assert result.meta["cache"] == expected
                reports.append(self.truncation())
        assert reports[0] == reports[1]
        assert reports[0]["kernel"] == "sweep"
        assert swept == [reports[0]["truncation_k"]]


class TestChaosInjection:
    def test_silent_garbage_degrades_to_bitwise_sparse(self):
        """The acceptance scenario: a silently-wrong steady solve is
        caught by the residual sentinel, degrades gmres -> sparse (the
        power iteration between them cannot finish this chain within
        its budget), and the served vector is bit-identical to a clean
        sparse solve."""
        ir = weighted_ring_ir([2.0, 1.0, 4.0, 0.5, 3.0])
        with cache_override(False):
            clean = solve(ir, "steady", backend="sparse", fallback=False)
            spec = faults.FaultSpec("solver_silent_garbage", times=1)
            with faults.inject(spec) as plan:
                result = solve(ir, "steady", backend="gmres")
                assert plan.fired("solver_silent_garbage") == 1
        assert result.meta["backend"] == "sparse"
        assert result.meta["fallback_from"] == "gmres"
        assert "residual" in result.meta["fallback_error"]
        assert np.array_equal(result.pi, clean.pi)

    def test_silent_garbage_never_pollutes_the_cache(self):
        ir = ring_ir(6, rate=3.0)
        with faults.inject(faults.FaultSpec("solver_silent_garbage", times=1)):
            garbage_run = solve(ir, "steady", backend="gmres")
        assert garbage_run.meta["fallback_from"] == "gmres"
        # The registry stores a result only after the sentinels pass, so
        # the rejected gmres garbage never became an entry: a later gmres
        # solve — no fallback allowed — recomputes a vector that passes.
        again = solve(ir, "steady", backend="gmres", fallback=False)
        assert again.meta["backend"] == "gmres"
        assert again.meta["cache"] != "hit"
        assert "fallback_from" not in again.meta
        assert np.allclose(again.pi, garbage_run.pi, atol=1e-8)

    def test_injected_sentinel_violation_falls_back(self):
        ir = ring_ir(3)
        spec = faults.FaultSpec("sentinel_violation", backend="gmres")
        with faults.inject(spec) as plan:
            result = solve(ir, "steady", backend="gmres")
            assert plan.fired("sentinel_violation") == 1
        assert result.meta["fallback_from"] == "gmres"
        assert "injected" in result.meta["fallback_error"]

    def test_injected_shadow_mismatch_quarantines(self):
        ir = ring_ir(4, rate=1.5)
        before = counter("ir.trust.shadow_mismatch")
        with faults.inject(faults.FaultSpec("shadow_mismatch")):
            with pytest.raises(NumericalTrustError, match="disagrees") as info:
                solve(ir, "steady", shadow="gmres")
        assert info.value.invariant == "shadow_mismatch"
        assert counter("ir.trust.shadow_mismatch") == before + 1


class TestShadowVerification:
    def test_explicit_shadow_agrees(self):
        ir = ring_ir(4)
        result = solve(ir, "steady", shadow="gmres")
        d = result.meta["diagnostics"]
        assert d["shadow_backend"] == "gmres"
        assert d["shadow_max_abs"] <= d["shadow_tolerance"]

    def test_ode_shadow_across_integrators(self):
        ir = birth_death_ir(4.0)
        solve(ir, "ode", times=np.linspace(0.0, 2.0, 9), shadow="rk4")
        d = guards.last_diagnostics()
        assert d["shadow_backend"] == "rk4"
        assert d["shadow_max_abs"] <= d["shadow_tolerance"]

    def test_shadow_same_backend_is_skipped(self):
        ir = ring_ir(4)
        before = counter("ir.trust.shadow.skipped")
        result = solve(ir, "steady", backend="gmres", shadow="gmres")
        assert "shadow_backend" not in result.meta["diagnostics"]
        assert counter("ir.trust.shadow.skipped") == before + 1

    def test_ssa_is_never_shadowed(self):
        assert guards.shadow_backend("ssa", "direct", None) is None
        assert (
            guards.shadow_backend("ssa", "direct", None, explicit="next-reaction")
            is None
        )

    def test_partner_selection(self):
        small = ring_ir(3)
        assert guards.shadow_backend("steady", "sparse", small) == "gmres"
        assert guards.shadow_backend("steady", "gmres", small) == "sparse"
        assert guards.shadow_backend("steady", "uniformization", small) == "sparse"
        assert guards.shadow_backend("ode", "scipy", None) == "rk4"
        # Dense expm partners are skipped above the dense state limit.
        limit = guards.DENSE_STATE_LIMIT
        fits = SimpleNamespace(n_states=limit)
        assert guards.shadow_backend("transient", "uniformization", fits) == "expm"
        big = SimpleNamespace(n_states=limit + 1)
        assert guards.shadow_backend("transient", "uniformization", big) is None

    def test_sampling_is_deterministic_and_stratified(self):
        guards.reset_shadow_state()
        hits = [guards.shadow_due("steady", 0.5) for _ in range(10)]
        assert sum(hits) == 5
        guards.reset_shadow_state()
        assert hits == [guards.shadow_due("steady", 0.5) for _ in range(10)]
        guards.reset_shadow_state()

    def test_rate_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHADOW_RATE", raising=False)
        assert guards.shadow_rate() == 0.0
        monkeypatch.setenv("REPRO_SHADOW_RATE", "0.25")
        assert guards.shadow_rate() == 0.25
        monkeypatch.setenv("REPRO_SHADOW_RATE", "7")
        assert guards.shadow_rate() == 1.0
        monkeypatch.setenv("REPRO_SHADOW_RATE", "lots")
        with pytest.warns(UserWarning, match="malformed"):
            assert guards.shadow_rate() == 0.0

    def test_tolerance_is_the_capability_default(self):
        ir = ring_ir(3)
        a = SimpleNamespace(pi=np.array([0.5, 0.25, 0.25]))
        tol = guards.DEFAULT_SHADOW_TOL["steady"]
        near = SimpleNamespace(pi=a.pi + [tol / 2, 0.0, 0.0])
        info = guards.shadow_compare("steady", "sparse", "gmres", ir, a, near)
        assert info["shadow_tolerance"] == tol
        far = SimpleNamespace(pi=a.pi + [2 * tol, 0.0, 0.0])
        with pytest.raises(NumericalTrustError, match="disagrees"):
            guards.shadow_compare("steady", "sparse", "gmres", ir, a, far)

    def test_env_rate_shadows_every_solve(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHADOW_RATE", "1.0")
        guards.reset_shadow_state()
        before = counter("ir.trust.shadow.checked")
        ir = ring_ir(4, rate=0.7)
        result = solve(ir, "steady")
        assert counter("ir.trust.shadow.checked") == before + 1
        # Power iteration serves this ring exactly; the LU shadows it.
        assert result.meta["backend"] == "uniformization"
        assert result.meta["diagnostics"]["shadow_backend"] == "sparse"
        guards.reset_shadow_state()

    def test_shadow_compare_shape_mismatch_is_a_mismatch(self):
        ir = ring_ir(3)
        a = SimpleNamespace(pi=np.array([0.5, 0.25, 0.25]))
        b = SimpleNamespace(pi=np.array([0.5, 0.5]))
        with pytest.raises(NumericalTrustError, match="disagrees"):
            guards.shadow_compare("steady", "sparse", "gmres", ir, a, b)


class TestOdeDiagnostics:
    def test_scipy_integrator_stats_are_reported(self):
        ir = birth_death_ir(6.0)
        solve(ir, "ode", times=np.linspace(0.0, 3.0, 7))
        d = guards.last_diagnostics()
        assert d["ode_method"] == "LSODA"
        assert d["ode_nfev"] > 0
        assert d["ode_status"] == 0

    def test_rk4_stats_are_reported(self):
        ir = birth_death_ir(6.0)
        solve(ir, "ode", backend="rk4", times=np.linspace(0.0, 3.0, 7))
        d = guards.last_diagnostics()
        assert d["ode_method"] == "rk4"
        assert d["ode_nfev"] == 4 * 16 * 6
