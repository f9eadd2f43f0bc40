"""Discrete-time Markov chain helpers used by uniformization."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.numerics.generator import as_csr

__all__ = ["uniformized_dtmc", "uniformization_rate"]


def uniformization_rate(exit_rates: np.ndarray) -> float:
    """The rate :func:`uniformized_dtmc` picks by default: slightly above
    the largest of ``exit_rates`` (1 when no state has an exit)."""
    max_exit = float(exit_rates.max()) if exit_rates.size else 0.0
    return max_exit * 1.02 if max_exit > 0 else 1.0


def uniformized_dtmc(Q: sp.spmatrix, lam: float | None = None) -> tuple[sp.csr_matrix, float]:
    """Uniformize the CTMC generator ``Q`` into a DTMC transition matrix.

    Returns ``(P, lam)`` with ``P = I + Q / lam`` where ``lam`` defaults
    to slightly above the largest exit rate so every diagonal entry of
    ``P`` stays strictly positive (which makes downstream power methods
    aperiodic).
    """
    Q = as_csr(Q)
    exit_rates = -Q.diagonal()
    max_exit = float(exit_rates.max()) if Q.shape[0] else 0.0
    if lam is None:
        lam = uniformization_rate(exit_rates)
    elif lam < max_exit:
        raise ValueError(
            f"uniformization rate {lam} is below the maximum exit rate {max_exit}"
        )
    P = sp.eye(Q.shape[0], format="csr") + Q.multiply(1.0 / lam)
    return P.tocsr(), lam

