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
            "steady": ("dense", "gmres", "sparse", "uniformization"),
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
        assert default_backend("steady") == "sparse"
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
        for backend in ("dense", "gmres", "uniformization"):
            pi = solve(ir, "steady", backend=backend).pi
            np.testing.assert_allclose(pi, reference, atol=1e-8)

    def test_counter_and_backend_meta(self):
        reg = get_registry()
        before = reg.counter("ir.steady.dense")
        result = solve(ring_ir(), "steady", backend="dense")
        assert reg.counter("ir.steady.dense") == before + 1
        assert result.meta["backend"] == "dense"

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
        assert fallback_chain("steady") == ("gmres", "sparse", "dense")
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
