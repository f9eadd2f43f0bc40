"""Passage-time analysis for PEPA models.

The finishing-time CDFs of the paper's Figs. 3 and 4 are first-passage
distributions: the probability that the system has reached a set of
*target* states (machine finished all mapped applications) by time
``t``, starting from a source distribution.

This module resolves frontend-level target/source specs (predicates,
``(leaf, label)`` pairs, index lists) into state indices and delegates
the numerics to the ``passage`` capability of the backend registry —
``uniformization`` (production path) or ``expm`` (dense matrix
exponential; ablation D2, small models only).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.engine.metrics import get_registry
from repro.errors import NumericsError, reraise_ir_errors
from repro.ir import solve
from repro.ir.backends import PassageSolution
from repro.numerics.transient import expected_hitting_time
from repro.pepa.ctmc import CTMC

__all__ = ["passage_time_cdf", "passage_time_mean", "passage_time_quantile", "PassageTimeResult"]

StatePredicate = Callable[[object, int], bool]


#: The passage result type of every frontend: the registry's solution,
#: whose ``meta`` :func:`passage_time_cdf` extends with ``n_states`` and
#: ``method``.
PassageTimeResult = PassageSolution


def _resolve_states(chain: CTMC, spec) -> list[int]:
    """Resolve a target/source spec into state indices.

    Accepts an iterable of indices, a predicate ``f(space, i)``, or a
    ``(leaf, local_state_label)`` pair.
    """
    space = chain.space
    if callable(spec):
        return space.states_where(spec)
    if (
        isinstance(spec, tuple)
        and len(spec) == 2
        and isinstance(spec[0], (int, str))
        and isinstance(spec[1], str)
    ):
        return space.states_with_local(spec[0], spec[1])
    return [int(s) for s in spec]


def passage_time_cdf(
    chain: CTMC,
    target,
    times: Sequence[float],
    source: Sequence[int] | None = None,
    method: str = "uniformization",
    epsilon: float = 1e-12,
) -> PassageTimeResult:
    """CDF of the first-passage time from ``source`` into ``target``.

    Parameters
    ----------
    chain:
        The CTMC (may contain absorbing states — typical for
        finishing-time models).
    target:
        Target spec: state indices, a predicate ``f(space, i)``, or a
        ``(leaf, local_label)`` pair.
    times:
        Evaluation grid (non-negative).
    source:
        Source state indices; mass is split uniformly among them.
        Defaults to the initial state.
    method:
        ``"uniformization"`` (production path) or ``"expm"`` (dense
        matrix exponential; ablation D2, small models only).
    """
    space = chain.space
    n = chain.n_states
    targets = _resolve_states(chain, target)
    if not targets:
        raise NumericsError("passage-time target set is empty")
    pi0 = np.zeros(n)
    if source is None:
        pi0[space.initial_state] = 1.0
    else:
        src = list(source)
        if not src:
            raise NumericsError("passage-time source set is empty")
        pi0[src] = 1.0 / len(src)
    times_arr = np.asarray(times, dtype=np.float64)
    if method not in ("uniformization", "expm"):
        raise ValueError(f"unknown passage-time method {method!r}")
    with get_registry().timer("passage_time_cdf") as gauges:
        with reraise_ir_errors(NumericsError):
            sol = solve(
                chain.lower(),
                "passage",
                backend=method,
                targets=tuple(sorted(targets)),
                times=times_arr,
                pi0=pi0,
                epsilon=epsilon,
            )
        gauges["n_states"] = n
    sol.meta.update(n_states=n, method=method)
    return sol


def passage_time_mean(chain: CTMC, target, source: Sequence[int] | None = None) -> float:
    """Mean first-passage time into ``target`` (see :func:`passage_time_cdf`
    for the target/source specs)."""
    n = chain.n_states
    targets = _resolve_states(chain, target)
    if not targets:
        raise NumericsError("passage-time target set is empty")
    pi0 = np.zeros(n)
    if source is None:
        pi0[chain.space.initial_state] = 1.0
    else:
        src = list(source)
        pi0[src] = 1.0 / len(src)
    return expected_hitting_time(chain.generator, pi0, targets)


def passage_time_quantile(
    chain: CTMC,
    target,
    q: float,
    horizon: float | None = None,
    grid_points: int = 400,
) -> float:
    """Convenience wrapper: evaluate the CDF on an automatic grid and read
    off the ``q`` quantile.  The horizon defaults to eight mean passage
    times, which covers q <= 0.999 for well-behaved models."""
    mean = passage_time_mean(chain, target)
    if horizon is None:
        horizon = 8.0 * mean if mean > 0 else 1.0
    times = np.linspace(0.0, horizon, grid_points)
    return passage_time_cdf(chain, target, times).quantile(q)
