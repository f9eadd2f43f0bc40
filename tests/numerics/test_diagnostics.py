"""The measurement functions behind the trust layer's sentinels."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.numerics import diagnostics as diag


def ring_Q(n: int = 4, rate: float = 1.0) -> sp.csr_matrix:
    rows = list(range(n))
    cols = [(i + 1) % n for i in range(n)]
    Q = sp.coo_matrix((np.full(n, rate), (rows, cols)), shape=(n, n)).tolil()
    Q.setdiag(-rate)
    return Q.tocsr()


class TestSteadyResidual:
    def test_equilibrium_has_tiny_residual(self):
        Q = ring_Q(5)
        pi = np.full(5, 0.2)
        assert diag.steady_residual(Q, pi) < 1e-15

    def test_wrong_vector_has_large_residual(self):
        Q = ring_Q(4)
        pi = np.array([0.7, 0.1, 0.1, 0.1])
        assert diag.steady_residual(Q, pi) == pytest.approx(0.6)

    def test_empty_system(self):
        Q = sp.csr_matrix((0, 0))
        assert diag.steady_residual(Q, np.empty(0)) == 0.0


def factorized(Q: sp.spmatrix):
    """The replaced steady-state system and its LU, as the direct solver
    hands them to :func:`diag.condition_estimate`."""
    from repro.numerics.steady import _replaced_system

    A, _b = _replaced_system(sp.csr_matrix(Q, dtype=np.float64))
    return A, spla.splu(A)


class TestConditionEstimate:
    def test_well_conditioned_ring(self):
        kappa = diag.condition_estimate(*factorized(ring_Q(6)))
        assert kappa is not None
        assert 1.0 <= kappa < 1e4

    def test_stiff_chain_is_worse_conditioned(self):
        # Two time scales nine orders apart: conditioning must reflect it.
        fast, slow = 1e6, 1e-3
        Q = sp.csr_matrix(
            np.array(
                [
                    [-fast, fast, 0.0],
                    [0.0, -slow, slow],
                    [slow, 0.0, -slow],
                ]
            )
        )
        kappa = diag.condition_estimate(*factorized(Q))
        assert kappa is not None
        assert kappa > 1e6

    def test_tiny_system_returns_none(self):
        Q = sp.csr_matrix(np.array([[0.0]]))
        assert diag.condition_estimate(*factorized(Q)) is None

    def test_oversized_system_returns_none(self, monkeypatch):
        monkeypatch.setattr(diag, "CONDITION_ESTIMATE_LIMIT", 3)
        assert diag.condition_estimate(*factorized(ring_Q(4))) is None

    def test_norm_of_a_is_the_exact_column_sum(self):
        # ||A||_1 is computed exactly; on this small ring the ||A^-1||_1
        # estimate is exact too, so kappa matches a dense inverse.
        A, lu = factorized(ring_Q(5, rate=2.0))
        dense = A.toarray()
        exact = np.abs(dense).sum(axis=0).max() * np.abs(
            np.linalg.inv(dense)
        ).sum(axis=0).max()
        assert diag.condition_estimate(A, lu) == pytest.approx(exact, rel=1e-12)

    def test_same_estimate_under_any_global_seed(self):
        A, lu = factorized(ring_Q(6))
        np.random.seed(0)
        first = diag.condition_estimate(A, lu)
        np.random.seed(1)
        assert diag.condition_estimate(A, lu) == first

    def test_leaves_the_global_rng_untouched(self):
        A, lu = factorized(ring_Q(6))
        np.random.seed(7)
        before = np.random.get_state()
        diag.condition_estimate(A, lu)
        after = np.random.get_state()
        assert before[0] == after[0] and before[2:] == after[2:]
        np.testing.assert_array_equal(before[1], after[1])


class TestSimplexDefect:
    def test_clean_distribution(self):
        d = diag.simplex_defect(np.array([0.25, 0.75]))
        assert d == {"min": 0.0, "mass_error": 0.0, "finite": True}

    def test_negative_entry_and_mass(self):
        d = diag.simplex_defect(np.array([-0.1, 0.9]))
        assert d["min"] == pytest.approx(-0.1)
        assert d["mass_error"] == pytest.approx(0.2)

    def test_nan_flags_nonfinite(self):
        d = diag.simplex_defect(np.array([np.nan, 1.0]))
        assert d["finite"] is False


class TestMonotonicityDefect:
    def test_monotone_is_zero(self):
        assert diag.monotonicity_defect(np.array([0.0, 0.3, 0.9, 1.0])) == 0.0

    def test_largest_drop_wins(self):
        cdf = np.array([0.0, 0.5, 0.2, 0.4, 0.35])
        assert diag.monotonicity_defect(cdf) == pytest.approx(0.3)

    def test_short_inputs(self):
        assert diag.monotonicity_defect(np.array([0.5])) == 0.0
        assert diag.monotonicity_defect(np.empty(0)) == 0.0


class TestTruncationDiagnostics:
    def test_reports_rate_and_truncation_point(self):
        out = diag.truncation_diagnostics(ring_Q(4, rate=3.0), t_max=2.0)
        assert out["uniformization_rate"] == pytest.approx(3.0)
        assert out["poisson_mean"] == pytest.approx(6.0)
        assert out["truncation_k"] > 6
        assert out["truncation_mass"] == 1e-12

    def test_zero_horizon(self):
        out = diag.truncation_diagnostics(ring_Q(4), t_max=0.0)
        assert out["poisson_mean"] == 0.0
        assert out["truncation_k"] == 0


class TestConservation:
    def test_closed_network_has_a_law(self):
        # A <-> B: the total is conserved.
        N = np.array([[-1.0, 1.0], [1.0, -1.0]])
        W = diag.conservation_laws(N)
        assert W.shape == (1, 2)
        assert np.allclose(W @ N, 0.0, atol=1e-12)

    def test_open_network_has_none(self):
        # Birth-death on one species conserves nothing.
        N = np.array([[1.0, -1.0]])
        assert diag.conservation_laws(N).shape[0] == 0

    def test_empty_network(self):
        assert diag.conservation_laws(np.empty((1, 0))).size == 0

    def test_defect_measures_drift(self):
        N = np.array([[-1.0, 1.0], [1.0, -1.0]])
        W = diag.conservation_laws(N)
        reference = np.array([10.0, 0.0])
        clean = np.array([[10.0, 0.0], [4.0, 6.0]])
        assert diag.conservation_defect(W, clean, reference) < 1e-12
        drifted = np.array([[10.0, 0.0], [4.0, 5.0]])
        got = diag.conservation_defect(W, drifted, reference)
        assert got == pytest.approx(1.0 / np.sqrt(2.0))

    def test_defect_without_laws_is_zero(self):
        W = np.empty((0, 2))
        assert diag.conservation_defect(W, np.ones((3, 2)), np.ones(2)) == 0.0
