"""Steady-state solvers: closed forms, cross-method agreement, failure modes."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SingularGeneratorError
from repro.numerics.steady import steady_state, validate_generator
from tests.conftest import random_generator


def two_state(a: float, b: float) -> sp.csr_matrix:
    """0 -> 1 at rate a, 1 -> 0 at rate b."""
    return sp.csr_matrix(np.array([[-a, a], [b, -b]]))


def birth_death(n: int, lam: float, mu: float) -> sp.csr_matrix:
    """M/M/1/n queue generator."""
    Q = np.zeros((n + 1, n + 1))
    for i in range(n):
        Q[i, i + 1] = lam
        Q[i + 1, i] = mu
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return sp.csr_matrix(Q)


class TestClosedForms:
    @pytest.mark.parametrize("method", ["direct", "gmres", "power"])
    def test_two_state(self, method):
        a, b = 2.0, 3.0
        result = steady_state(two_state(a, b), method=method)
        np.testing.assert_allclose(result.pi, [b / (a + b), a / (a + b)], atol=1e-8)
        assert result.method == method

    @pytest.mark.parametrize("method", ["direct", "gmres", "power"])
    def test_birth_death_geometric(self, method):
        lam, mu, n = 1.0, 2.0, 8
        rho = lam / mu
        expected = np.array([rho**k for k in range(n + 1)])
        expected /= expected.sum()
        result = steady_state(birth_death(n, lam, mu), method=method, tol=1e-12)
        np.testing.assert_allclose(result.pi, expected, atol=1e-7)

    def test_single_state(self):
        result = steady_state(sp.csr_matrix(np.array([[0.0]])))
        np.testing.assert_allclose(result.pi, [1.0])

    def test_result_indexing(self):
        result = steady_state(two_state(1.0, 1.0))
        assert result[0] == pytest.approx(0.5)


class TestReplacedSystem:
    """The CSC built from Q's arrays must be exactly Q^T with its last row
    replaced by the normalization row of ones."""

    @pytest.mark.parametrize("n", [2, 5, 13])
    def test_matches_dense_construction(self, n):
        rng = np.random.default_rng(n)
        Q = random_generator(rng, n)
        from repro.numerics.steady import _replaced_system

        A, b = _replaced_system(sp.csr_matrix(Q, dtype=np.float64))
        expected = np.asarray(Q.todense()).T.copy()
        expected[n - 1, :] = 1.0
        np.testing.assert_allclose(A.toarray(), expected, atol=0.0)
        assert b[n - 1] == 1.0 and (b[:-1] == 0.0).all()
        assert A.format == "csc"


class TestReferenceModelAgreement:
    """All three back-ends must agree on a reference PEPA model, not just
    on synthetic random generators."""

    def test_methods_agree_on_pc_lan(self):
        from repro.pepa import ctmc_of
        from repro.pepa.models import get_model
        from repro.pepa.statespace import derive

        chain = ctmc_of(derive(get_model("pc_lan_4")))
        direct = steady_state(chain.generator, method="direct")
        gmres = steady_state(chain.generator, method="gmres", tol=1e-12)
        power = steady_state(chain.generator, method="power", tol=1e-12)
        np.testing.assert_allclose(gmres.pi, direct.pi, atol=1e-8)
        np.testing.assert_allclose(power.pi, direct.pi, atol=1e-8)
        # The numerics cache nothing: caching is the registry's job.
        assert "cache" not in direct.meta
        assert power.iterations > 0


class TestGmresTrueResidual:
    """GMRES exit codes are not trusted: the solver re-measures |Ax - b|."""

    def test_silent_nonconvergence_is_recoverable(self, monkeypatch):
        # A preconditioned GMRES that lies: info == 0 on a garbage vector.
        import repro.numerics.steady as steady_mod
        from repro.errors import ConvergenceError

        def lying_gmres(A, b, **kwargs):
            return np.full(A.shape[0], 0.5), 0

        monkeypatch.setattr(steady_mod.spla, "gmres", lying_gmres)
        with pytest.raises(ConvergenceError, match="true residual"):
            steady_state(two_state(2.7, 3.9), method="gmres")

    def test_honest_solve_passes_the_check(self):
        from repro.engine import cache_disabled

        with cache_disabled():
            result = steady_state(two_state(2.7, 3.9), method="gmres")
        a, b = 2.7, 3.9
        np.testing.assert_allclose(result.pi, [b / (a + b), a / (a + b)], atol=1e-8)

    def test_injected_garbage_skips_the_cache(self):
        from repro.engine import faults

        Q = two_state(1.3, 4.1)
        with faults.inject(faults.FaultSpec("solver_silent_garbage",
                                            backend="direct")) as plan:
            rigged = steady_state(Q, method="direct")
            assert plan.fired() == 1
        # The rigged vector is normalized and claims a tiny residual ...
        assert rigged.pi.sum() == pytest.approx(1.0)
        assert rigged.residual < 1e-10
        # ... but the truth is recomputable: the next solve is clean.
        assert float(np.abs(rigged.pi @ Q).max()) > 0.1
        clean = steady_state(Q, method="direct")
        np.testing.assert_allclose(
            clean.pi, [4.1 / 5.4, 1.3 / 5.4], atol=1e-10
        )


class TestCrossMethodAgreement:
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 25))
    @settings(max_examples=25, deadline=None)
    def test_methods_agree_on_random_chains(self, seed, n):
        rng = np.random.default_rng(seed)
        Q = random_generator(rng, n)
        direct = steady_state(Q, method="direct").pi
        power = steady_state(Q, method="power", tol=1e-12).pi
        np.testing.assert_allclose(direct, power, atol=1e-6)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_gmres_agrees(self, seed):
        rng = np.random.default_rng(seed)
        Q = random_generator(rng, 15)
        direct = steady_state(Q, method="direct").pi
        gmres = steady_state(Q, method="gmres", tol=1e-12).pi
        np.testing.assert_allclose(direct, gmres, atol=1e-6)

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
    @settings(max_examples=25, deadline=None)
    def test_solution_properties(self, seed, n):
        rng = np.random.default_rng(seed)
        Q = random_generator(rng, n)
        result = steady_state(Q)
        assert abs(result.pi.sum() - 1.0) < 1e-9
        assert (result.pi >= 0).all()
        assert result.residual < 1e-7 * max(1.0, abs(Q.diagonal()).max())


class TestValidation:
    def test_non_square_rejected(self):
        with pytest.raises(SingularGeneratorError, match="square"):
            validate_generator(sp.csr_matrix(np.zeros((2, 3))))

    def test_empty_rejected(self):
        with pytest.raises(SingularGeneratorError, match="empty"):
            validate_generator(sp.csr_matrix((0, 0)))

    def test_bad_row_sum_rejected(self):
        Q = sp.csr_matrix(np.array([[-1.0, 2.0], [1.0, -1.0]]))
        with pytest.raises(SingularGeneratorError, match="sums to"):
            validate_generator(Q)

    def test_negative_off_diagonal_rejected(self):
        Q = sp.csr_matrix(np.array([[1.0, -1.0], [1.0, -1.0]]))
        with pytest.raises(SingularGeneratorError):
            validate_generator(Q)

    def test_absorbing_state_rejected(self):
        Q = sp.csr_matrix(np.array([[-1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(SingularGeneratorError, match="absorbing"):
            steady_state(Q)

    def test_reducible_chain_rejected(self):
        # Two disconnected 2-state chains: no unique steady state, and
        # no method may return one (gmres and power used to).
        Q = sp.block_diag([two_state(1.0, 1.0), two_state(2.0, 2.0)]).tocsr()
        for method in ("direct", "gmres", "power"):
            with pytest.raises(SingularGeneratorError, match="2 closed"):
                steady_state(Q, method=method)

    @pytest.mark.parametrize("method", ["direct", "gmres", "power"])
    def test_transient_state_feeding_two_closed_classes_rejected(self, method):
        # State 0 is transient and drains into {1, 2} and {3, 4}: the
        # stationary vector depends on the split, so none is unique.
        Q = np.zeros((5, 5))
        Q[0, 1] = Q[0, 3] = 1.0
        Q[1, 2] = Q[2, 1] = 1.0
        Q[3, 4] = Q[4, 3] = 2.0
        np.fill_diagonal(Q, -Q.sum(axis=1))
        with pytest.raises(SingularGeneratorError, match="2 closed"):
            steady_state(sp.csr_matrix(Q), method=method)

    def test_stored_zero_rate_joins_no_classes(self):
        # {0, 1} and {2, 3} are joined only by an explicitly stored 0.0
        # from state 0 to state 2, which is not a rate.
        rows = [0, 0, 0, 1, 1, 2, 2, 3, 3]
        cols = [0, 1, 2, 0, 1, 2, 3, 2, 3]
        data = [-1.0, 1.0, 0.0, 1.0, -1.0, -2.0, 2.0, 2.0, -2.0]
        Q = sp.csr_matrix((data, (rows, cols)), shape=(4, 4))
        assert Q.nnz == 9
        with pytest.raises(SingularGeneratorError, match="2 closed"):
            steady_state(Q)

    @pytest.mark.parametrize("method", ["direct", "gmres", "power"])
    def test_transient_states_with_one_closed_class_solve(self, method):
        # 0 -> 1 is transient; {1, 2} is the one closed class.
        Q = np.zeros((3, 3))
        Q[0, 1] = 1.0
        Q[1, 2] = 1.0
        Q[2, 1] = 3.0
        np.fill_diagonal(Q, -Q.sum(axis=1))
        result = steady_state(sp.csr_matrix(Q), method=method, tol=1e-12)
        np.testing.assert_allclose(result.pi, [0.0, 0.75, 0.25], atol=1e-8)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            steady_state(two_state(1.0, 1.0), method="magic")

    def test_check_false_skips_validation(self):
        # With check=False a slightly imbalanced generator still solves.
        Q = two_state(1.0, 1.0)
        result = steady_state(Q, check=False)
        np.testing.assert_allclose(result.pi, [0.5, 0.5], atol=1e-9)
