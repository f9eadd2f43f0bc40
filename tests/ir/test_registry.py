"""The backend registry: discovery, aliases, dispatch, cache and metrics."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.engine import cache_override, get_cache, get_registry
from repro.errors import BackendError, SingularGeneratorError
from repro.ir import (
    MarkovIR,
    ReactionIR,
    available_backends,
    default_backend,
    fallback_chain,
    get_backend,
    solve,
)

from tests.ir.test_reaction_ir import birth_death_ir


def ring_ir(n: int = 4) -> MarkovIR:
    """An n-state unidirectional ring — irreducible, tiny, exact."""
    rows = list(range(n))
    cols = [(i + 1) % n for i in range(n)]
    Q = sp.coo_matrix((np.ones(n), (rows, cols)), shape=(n, n)).tolil()
    Q.setdiag(-1.0)
    return MarkovIR(generator=Q.tocsr())


class TestDiscovery:
    def test_available_backends(self):
        listing = available_backends()
        numeric = {c: n for c, n in listing.items() if c != "derive"}
        assert numeric == {
            "steady": ("gmres", "sparse", "uniformization"),
            "transient": ("expm", "uniformization"),
            "passage": ("expm", "uniformization"),
            "ssa": ("direct", "next-reaction"),
            "ode": ("rk4", "scipy"),
        }
        # The derive capability is registered by the pepa frontend on
        # import; whether it shows up here depends on what this process
        # imported before, so only pin its content when present.
        if "derive" in listing:
            assert listing["derive"] == ("auto", "explicit", "population")

    def test_single_capability_listing(self):
        assert available_backends("ode") == {"ode": ("rk4", "scipy")}

    def test_defaults(self):
        assert default_backend("steady") == "uniformization"
        assert default_backend("transient") == "uniformization"
        assert default_backend("passage") == "uniformization"
        assert default_backend("ssa") == "direct"
        assert default_backend("ode") == "scipy"

    @pytest.mark.parametrize(
        "capability, alias, resolved",
        [
            ("steady", "direct", "sparse"),
            ("steady", "power", "uniformization"),
            ("ssa", "gillespie", "direct"),
            ("passage", "dense", "expm"),
        ],
    )
    def test_aliases(self, capability, alias, resolved):
        assert get_backend(capability, alias).name == resolved

    def test_unknown_backend_lists_available(self):
        with pytest.raises(BackendError, match="available"):
            get_backend("steady", "quantum")

    def test_unknown_capability(self):
        with pytest.raises(BackendError, match="unknown capability"):
            get_backend("equilibrium")
        with pytest.raises(BackendError, match="unknown capability"):
            solve(ring_ir(), "equilibrium")


class TestDispatch:
    def test_type_mismatch_is_rejected(self):
        # ode needs a ReactionIR; next-reaction SSA refuses MarkovIR.
        with pytest.raises(BackendError, match="ReactionIR, got MarkovIR"):
            solve(ring_ir(), "ode", times=[0.0, 1.0])
        with pytest.raises(BackendError, match="next-reaction"):
            solve(ring_ir(), "ssa", backend="next-reaction", times=[0.0, 1.0])

    def test_steady_solves_through_any_backend(self):
        ir = ring_ir()
        reference = solve(ir, "steady").pi
        np.testing.assert_allclose(reference, np.full(4, 0.25), atol=1e-12)
        for backend in ("gmres", "uniformization"):
            pi = solve(ir, "steady", backend=backend).pi
            np.testing.assert_allclose(pi, reference, atol=1e-8)

    def test_counter_and_backend_meta(self):
        reg = get_registry()
        before = reg.counter("ir.steady.gmres")
        result = solve(ring_ir(), "steady", backend="gmres")
        assert reg.counter("ir.steady.gmres") == before + 1
        assert result.meta["backend"] == "gmres"

    def test_passage_caches_at_registry_level(self):
        ir = ring_ir(5)
        times = np.linspace(0.0, 7.0, 23)  # grid unique to this test
        with cache_override(True):
            first = solve(ir, "passage", targets=(2,), times=times)
            again = solve(ir, "passage", targets=(2,), times=times)
        assert first.meta["cache"] == "miss"
        assert again.meta["cache"] == "hit"
        assert again.meta["backend"] == "uniformization"
        np.testing.assert_array_equal(first.cdf, again.cdf)
        get_cache().clear()

    def test_tokenless_reaction_ir_bypasses_cache(self):
        ir = birth_death_ir()
        tokenless = ReactionIR(
            species=ir.species,
            initial=ir.initial,
            stoichiometry=ir.stoichiometry,
            reaction_names=ir.reaction_names,
            propensities=ir.propensities,
            token=None,
        )
        times = np.linspace(0.0, 1.0, 5)
        with cache_override(True):
            a = solve(tokenless, "ode", times=times)
            b = solve(tokenless, "ode", times=times)
        # ndarray results carry no meta; identity shows no cache was hit.
        assert a is not b
        np.testing.assert_allclose(a, b)
        get_cache().clear()

    def test_ode_backends_agree_on_birth_death(self):
        ir = birth_death_ir()
        times = np.linspace(0.0, 2.0, 21)
        sol_scipy = solve(ir, "ode", times=times)
        sol_rk4 = solve(ir, "ode", backend="rk4", times=times)
        # dX/dt = 0.5 X  =>  X(t) = 5 e^{t/2}.
        exact = 5.0 * np.exp(0.5 * times)
        np.testing.assert_allclose(sol_scipy[:, 0], exact, rtol=1e-5)
        np.testing.assert_allclose(sol_rk4[:, 0], exact, rtol=1e-4)


class TestFallbackChains:
    def test_registered_chains(self):
        assert fallback_chain("steady") == ("gmres", "uniformization", "sparse")
        assert fallback_chain("transient") == ("expm", "uniformization")
        assert fallback_chain("passage") == ("expm", "uniformization")
        assert fallback_chain("ode") == ("scipy", "rk4")
        # Stochastic backends with distinct RNG streams are never
        # silently substituted, and ``direct`` picks its own kernel.
        assert fallback_chain("ssa") == ()

    def test_exhausted_chain_reraises_first_error(self):
        # An absorbing chain defeats every steady backend the same way;
        # solve must re-raise the requested backend's error, not the
        # last candidate's, and count the exhaustion.
        Q = sp.csr_matrix(np.array([[-1.0, 1.0], [0.0, 0.0]]))
        reg = get_registry()
        before = reg.counter("ir.fallback.exhausted")
        with pytest.raises(SingularGeneratorError, match="absorbing"):
            solve(MarkovIR(generator=Q), "steady", backend="gmres")
        assert reg.counter("ir.fallback.exhausted") == before + 1

    def test_non_recoverable_error_skips_fallback(self):
        # A bad parameter is a caller bug, not a solver failure: it must
        # propagate from the requested backend without walking the chain.
        reg = get_registry()
        used = reg.counter("ir.fallback.used")
        exhausted = reg.counter("ir.fallback.exhausted")
        with pytest.raises(TypeError):
            solve(ring_ir(), "steady", backend="gmres", bogus_option=1)
        assert reg.counter("ir.fallback.used") == used
        assert reg.counter("ir.fallback.exhausted") == exhausted


def weighted_ring_ir(rates) -> MarkovIR:
    """A ring whose per-state rates make its content (and cache key)
    unique to the calling test."""
    n = len(rates)
    rows = list(range(n))
    cols = [(i + 1) % n for i in range(n)]
    Q = sp.coo_matrix((np.asarray(rates), (rows, cols)), shape=(n, n)).tolil()
    Q.setdiag(-np.asarray(rates))
    return MarkovIR(generator=Q.tocsr())


class TestOneSteadyPath:
    """Steady caches, hashes and factorizes once, in the registry."""

    def test_default_steady_solve_factorizes_once(self, monkeypatch):
        import scipy.sparse.linalg as spla

        calls = []
        real = spla.splu

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting)
        with cache_override(False):
            result = solve(ring_ir(6), "steady")
        assert len(calls) == 1
        assert result.meta["diagnostics"]["condition_estimate"] is not None

    def test_steady_caches_in_the_registry(self):
        ir = weighted_ring_ir([1.0, 2.5, 0.75, 3.125])
        with cache_override(True):
            first = solve(ir, "steady")
            again = solve(
                weighted_ring_ir([1.0, 2.5, 0.75, 3.125]), "steady"
            )
        assert first.meta["cache"] == "miss"
        assert again.meta["cache"] == "hit"
        np.testing.assert_array_equal(first.pi, again.pi)
        get_cache().clear()

    def test_cache_hit_carries_the_condition_estimate(self):
        ir = weighted_ring_ir([0.5, 1.5, 2.75, 4.0, 1.25])
        with cache_override(True):
            first = solve(ir, "steady")
            again = solve(ir, "steady")
        assert again.meta["cache"] == "hit"
        assert first.condition_estimate is not None
        assert again.condition_estimate == first.condition_estimate
        assert (
            again.meta["diagnostics"]["condition_estimate"]
            == first.condition_estimate
        )
        get_cache().clear()

    def test_condition_estimate_stays_out_of_the_digest(self):
        from repro.engine import canonical_key

        result = solve(ring_ir(5), "steady")
        blank = type(result)(
            pi=result.pi, method=result.method, residual=result.residual,
            iterations=result.iterations,
        )
        assert blank.condition_estimate is None
        assert canonical_key("r", result) == canonical_key("r", blank)

    @pytest.mark.parametrize("backend", ["gmres", "uniformization"])
    def test_backends_without_a_sparse_lu_report_none(self, backend):
        result = solve(ring_ir(5), "steady", backend=backend)
        assert result.meta["diagnostics"]["condition_estimate"] is None

    def test_steady_solve_leaves_the_global_rng_untouched(self):
        np.random.seed(3)
        before = np.random.get_state()
        with cache_override(False):
            solve(ring_ir(6), "steady")
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        np.testing.assert_array_equal(before[1], after[1])

    def test_condition_estimate_does_not_depend_on_the_seed(self):
        kappas = []
        for seed in (0, 1):
            np.random.seed(seed)
            with cache_override(False):
                kappas.append(solve(ring_ir(6), "steady").condition_estimate)
        assert kappas[0] is not None
        assert kappas[0] == kappas[1]

    def test_ir_without_a_digest_runs_uncached(self):
        """Unhashable labels leave an IR without a digest; two such IRs
        must not share a cache key."""
        answers = []
        with cache_override(True):
            for rate in (1.0, 3.0):
                Q = sp.csr_matrix(np.array([[-rate, rate], [1.0, -1.0]]))
                ir = MarkovIR(generator=Q, labels=(object(), object()))
                result = solve(ir, "steady")
                assert result.meta["cache"] == "uncacheable"
                answers.append(result.pi)
        np.testing.assert_allclose(answers[0], [0.5, 0.5])
        np.testing.assert_allclose(answers[1], [0.25, 0.75])

    def test_rejected_result_is_recomputed_not_served(self, monkeypatch):
        """A result the sentinels reject is never stored: the next
        identical call runs the backend again."""
        from repro.errors import NumericalTrustError
        from repro.ir import registry

        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        calls = []

        def flaky(ir, *, times, pi0=None):
            calls.append(1)
            out = np.tile(ir.initial_distribution(), (len(times), 1))
            if len(calls) == 1:
                out[:, 0] = 2.0  # off the simplex
            return out

        registry.register_backend(
            "transient", "flaky", flaky, accepts=(MarkovIR,)
        )
        ir = ring_ir(3)
        times = [0.0, 1.0]
        with cache_override(True):
            with pytest.raises(NumericalTrustError, match="simplex"):
                solve(ir, "transient", backend="flaky", fallback=False,
                      times=times)
            clean = solve(ir, "transient", backend="flaky", fallback=False,
                          times=times)
        assert len(calls) == 2
        np.testing.assert_array_equal(clean[:, 0], [1.0, 1.0])
        get_cache().clear()


class TestRevisionInTheCacheKey:
    """A backend revision other than 1 joins the cache key, so results
    of older numerics are not served to a newer build."""

    def test_revision_one_entry_is_a_miss_after_the_bump(
        self, monkeypatch, tmp_path
    ):
        from repro.engine import configure_cache
        from repro.ir import registry

        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        sparse = get_backend("steady", "sparse").func

        def probe(revision):
            registry.register_backend(
                "steady", "probe", sparse, accepts=(MarkovIR,),
                revision=revision,
            )
            get_cache().clear()  # only the disk layer may answer
            return solve(
                weighted_ring_ir([1.0, 2.0, 4.0]), "steady", backend="probe"
            ).meta["cache"]

        previous = get_cache().disk_dir
        configure_cache(disk_dir=tmp_path)
        try:
            with cache_override(True):
                statuses = [probe(1), probe(1), probe(2), probe(2), probe(1)]
        finally:
            configure_cache(disk_dir=previous)
            get_cache().clear()
        assert statuses == ["miss", "hit", "miss", "hit", "hit"]


class TestPinnedRevision:
    """Requests run a backend's latest revision; ``pinned_revision``
    runs an earlier one that is still registered, inside its block."""

    def test_revisions_registered(self):
        from repro.ir.registry import available_revisions

        assert available_revisions("passage", "uniformization") == (1, 2)
        assert available_revisions("passage") == (1, 2)  # the default
        assert available_revisions("steady", "sparse") == (2,)

    def test_pin_selects_the_revision_inside_its_block_only(self):
        from repro.ir.registry import pinned_revision

        ir = weighted_ring_ir([1.0, 2.5, 4.0, 0.5])
        grid = np.linspace(0.0, 3.0, 120)
        with cache_override(False):
            latest = solve(ir, "passage", targets=[3], times=grid)
            with pinned_revision("passage", "uniformization", 1):
                assert get_backend("passage").revision == 1
                one = solve(ir, "passage", targets=[3], times=grid)
            again = solve(ir, "passage", targets=[3], times=grid)
        assert latest.meta["manifest"].backend["revision"] == 2
        assert "revision" not in one.meta["manifest"].backend
        assert latest.cdf.tobytes() == again.cdf.tobytes() != one.cdf.tobytes()
        assert np.abs(latest.cdf - one.cdf).max() <= 1e-12
        assert latest.mean == one.mean  # the hitting-time solve is shared

    def test_unregistered_revision_is_refused(self):
        from repro.ir.registry import pinned_revision

        with pytest.raises(BackendError, match="no revision 1"):
            with pinned_revision("steady", "sparse", 1):
                pass
