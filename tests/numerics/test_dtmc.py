"""Uniformized DTMC construction."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.numerics.dtmc import uniformized_dtmc
from tests.conftest import random_generator


class TestUniformize:
    def test_rows_stochastic(self):
        rng = np.random.default_rng(0)
        Q = random_generator(rng, 8)
        P, lam = uniformized_dtmc(Q)
        np.testing.assert_allclose(np.asarray(P.sum(axis=1)).ravel(), 1.0, atol=1e-12)
        assert lam > 0

    def test_diagonal_strictly_positive(self):
        rng = np.random.default_rng(1)
        Q = random_generator(rng, 6)
        P, _lam = uniformized_dtmc(Q)
        assert (P.diagonal() > 0).all()

    def test_custom_lambda_accepted(self):
        Q = sp.csr_matrix(np.array([[-1.0, 1.0], [2.0, -2.0]]))
        P, lam = uniformized_dtmc(Q, lam=10.0)
        assert lam == 10.0
        np.testing.assert_allclose(P.toarray(), [[0.9, 0.1], [0.2, 0.8]])

    def test_too_small_lambda_rejected(self):
        Q = sp.csr_matrix(np.array([[-1.0, 1.0], [5.0, -5.0]]))
        with pytest.raises(ValueError, match="below the maximum exit rate"):
            uniformized_dtmc(Q, lam=2.0)

