"""Poisson truncation weights: correctness against scipy, mass bounds, and
bit-identity with the frozen per-time oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
from scipy.stats import poisson as sp_poisson

from repro.allocation import MAPPING_A, MAPPING_B, synthetic_workload
from repro.allocation.cdf import makespan_cdf
from repro.allocation.mapping import MACHINES
from repro.engine import cache_override
from repro.ir import solve
from repro.ir.registry import pinned_revision
from repro.numerics import diagnostics, poisson, transient
from repro.numerics.dtmc import uniformized_dtmc
from repro.numerics.poisson import (
    _log_factorials,
    _log_terms,
    poisson_truncation_point,
    poisson_weight_rows,
    poisson_weights,
    uniformization_weights,
)
from repro.numerics.transient import transient_distribution
from repro.pepa import ctmc_of, derive
from repro.pepa.models import get_model
from tests.conftest import random_generator


class TestTruncationPoint:
    def test_zero_rate(self):
        assert poisson_truncation_point(0.0) == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            poisson_truncation_point(-1.0)

    @pytest.mark.parametrize("m", [0.1, 1.0, 5.0, 50.0, 500.0])
    def test_tail_below_epsilon(self, m):
        eps = 1e-12
        k = poisson_truncation_point(m, eps)
        tail = sp_poisson.sf(k, m)
        assert tail < eps

    def test_scales_like_sqrt(self):
        # K - m should grow like sqrt(m), not like m.
        k1 = poisson_truncation_point(100.0) - 100.0
        k2 = poisson_truncation_point(10000.0) - 10000.0
        assert k2 < 15 * k1


class TestWeights:
    def test_zero_rate_degenerate(self):
        k_lo, w = poisson_weights(0.0)
        assert k_lo == 0
        np.testing.assert_allclose(w, [1.0])

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            poisson_weights(-0.5)

    @pytest.mark.parametrize("m", [0.01, 0.5, 3.0, 30.0, 300.0, 3000.0])
    def test_matches_scipy_pmf(self, m):
        k_lo, w = poisson_weights(m, epsilon=1e-13)
        ks = np.arange(k_lo, k_lo + w.size)
        ref = sp_poisson.pmf(ks, m)
        # Weights are renormalized, so compare shapes after normalization.
        np.testing.assert_allclose(w, ref / ref.sum(), rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("m", [0.2, 2.0, 20.0, 200.0])
    def test_weights_sum_to_one(self, m):
        _k_lo, w = poisson_weights(m)
        assert math.isclose(w.sum(), 1.0, rel_tol=0, abs_tol=1e-12)

    def test_lower_truncation_used_for_large_m(self):
        k_lo, w = poisson_weights(10_000.0)
        assert k_lo > 0
        # The window is a few hundred wide, not 10k wide.
        assert w.size < 4000

    def test_mode_is_near_m(self):
        k_lo, w = poisson_weights(400.0)
        mode = k_lo + int(np.argmax(w))
        assert abs(mode - 400) <= 1

    @given(m=st.floats(min_value=0.001, max_value=2000.0))
    @settings(max_examples=40, deadline=None)
    def test_mass_and_mean_properties(self, m):
        k_lo, w = poisson_weights(m, epsilon=1e-12)
        assert abs(w.sum() - 1.0) < 1e-9
        ks = np.arange(k_lo, k_lo + w.size)
        mean = float(ks @ w)
        assert abs(mean - m) < 1e-6 * max(1.0, m)

    def test_all_weights_non_negative(self):
        for m in (0.1, 7.0, 77.0):
            _lo, w = poisson_weights(m)
            assert (w >= 0).all()


def _tail_bound(m: float, k: int) -> float:
    """The geometric tail bound poisson_truncation_point thresholds on."""
    ratio = m / (k + 1)
    if ratio >= 1.0:
        return math.inf
    log_pmf = k * math.log(m) - m - math.lgamma(k + 1)
    return math.exp(log_pmf + math.log(1.0 / (1.0 - ratio)))


class TestTruncationMinimality:
    """Regression: the forward walk alone overshot the minimal K by up
    to 5% (its step size); K must now be the *smallest* k whose tail
    bound is below epsilon."""

    @pytest.mark.parametrize("m", [0.5, 5.0, 50.0, 500.0, 5000.0])
    @pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
    def test_k_is_minimal(self, m, eps):
        k = poisson_truncation_point(m, eps)
        assert _tail_bound(m, k) < eps
        # K - 1 must NOT satisfy the bound — otherwise K is not minimal.
        # This is the assertion the pre-fix overshoot failed.
        assert _tail_bound(m, k - 1) >= eps

    @pytest.mark.parametrize("m", [50.0, 500.0, 5000.0])
    def test_true_tail_still_covered(self, m):
        # Minimality must not undercut correctness: the exact Poisson
        # tail above K stays below epsilon (the bound majorizes it).
        eps = 1e-12
        k = poisson_truncation_point(m, eps)
        assert sp_poisson.sf(k, m) < eps

    def test_loose_epsilon_does_not_break_bracket(self):
        # For eps ~ 0.5 even floor(m) can satisfy the bound; the
        # final walk-down handles what the bisection bracket cannot.
        for m in (3.0, 30.0, 300.0):
            k = poisson_truncation_point(m, 0.5)
            assert _tail_bound(m, k) < 0.5
            assert k == 0 or _tail_bound(m, k - 1) >= 0.5


class TestNonFiniteRate:
    """Regression: NaN slipped past ``m < 0`` and surfaced as int()'s
    "cannot convert float NaN to integer"; inf as an OverflowError."""

    @pytest.mark.parametrize("m", [math.nan, math.inf])
    def test_weights_name_the_rate(self, m):
        with pytest.raises(ValueError, match=f"Poisson rate .*{m}"):
            poisson_weights(m)

    @pytest.mark.parametrize("m", [math.nan, math.inf])
    def test_truncation_point_names_the_rate(self, m):
        with pytest.raises(ValueError, match=f"Poisson rate .*{m}"):
            poisson_truncation_point(m)


# ---------------------------------------------------------------------------
# Frozen oracle: the per-time scalar weight fill the whole-grid builder
# replaced, kept verbatim as test-only code.  The builder must reproduce
# it bit for bit, not merely to a tolerance.
# ---------------------------------------------------------------------------


def _oracle_truncation_point(m: float, epsilon: float = 1e-12) -> int:
    if m == 0.0:
        return 0
    log_eps = math.log(epsilon)

    def below_epsilon(k: int) -> bool:
        ratio = m / (k + 1)
        if ratio >= 1.0:
            return False
        log_pmf = k * math.log(m) - m - math.lgamma(k + 1)
        return log_pmf + math.log(1.0 / (1.0 - ratio)) < log_eps

    k = int(m + 8.0 * math.sqrt(m) + 10.0)
    while not below_epsilon(k):
        k += max(1, int(0.05 * k))
    lo = int(m)
    while k - lo > 1:
        mid = (k + lo) // 2
        if below_epsilon(mid):
            k = mid
        else:
            lo = mid
    while k > 0 and below_epsilon(k - 1):
        k -= 1
    return k


def _oracle_weights(m: float, epsilon: float = 1e-12) -> tuple[int, np.ndarray]:
    if m == 0.0:
        return 0, np.array([1.0])
    k_hi = _oracle_truncation_point(m, epsilon / 2.0)
    if m > 25.0:
        k_lo = max(0, int(m - 8.0 * math.sqrt(m) - 10.0))
        while k_lo > 0:
            log_pmf = k_lo * math.log(m) - m - math.lgamma(k_lo + 1)
            ratio = k_lo / m
            log_tail = log_pmf + math.log(1.0 / (1.0 - ratio)) if ratio < 1 else 0.0
            if log_tail < math.log(epsilon / 2.0):
                break
            k_lo = max(0, k_lo - max(1, int(0.05 * k_lo)))
    else:
        k_lo = 0
    ks = np.arange(k_lo, k_hi + 1, dtype=np.float64)
    log_w = ks * math.log(m) - m - np.array([math.lgamma(k + 1) for k in ks])
    log_w -= log_w.max()
    w = np.exp(log_w)
    w /= w.sum()
    return k_lo, w


def _oracle_transient(Q, pi0, times, epsilon=1e-12):
    Q = sp.csr_matrix(Q, dtype=np.float64)
    n = Q.shape[0]
    pi0 = np.clip(np.asarray(pi0, dtype=np.float64), 0.0, None)
    times = np.asarray(times, dtype=np.float64)
    P, lam = uniformized_dtmc(Q)
    PT = P.transpose().tocsr()
    t_max = float(times.max())
    k_max = _oracle_truncation_point(lam * t_max, epsilon) if t_max > 0 else 0
    W = np.zeros((times.size, k_max + 1))
    for i, t in enumerate(times):
        if t == 0.0:
            W[i, 0] = 1.0
            continue
        k_lo, w = _oracle_weights(lam * t, epsilon)
        hi = min(k_lo + w.size, k_max + 1)
        W[i, k_lo:hi] = w[: hi - k_lo]
    out = np.zeros((times.size, n))
    v = pi0.copy()
    for k in range(k_max + 1):
        col = W[:, k]
        if col.any():
            out += np.outer(col, v)
        if k < k_max:
            v = PT @ v
    sums = out.sum(axis=1, keepdims=True)
    np.divide(out, sums, out=out, where=sums > 0)
    return out


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBitIdentityOracle:
    # Crosses the m = 25 switch to the lower-tail walk, and spans the
    # tiny rates of early grid points to a 1e5-wide Poisson.
    @pytest.mark.parametrize(
        "m", [1e-9, 1e-3, 0.5, 3.0, 24.9, 25.0, 25.1, 100.0, 3000.0, 1e5]
    )
    @pytest.mark.parametrize("eps", [1e-6, 1e-12, 1e-14])
    def test_weights(self, m, eps):
        k_lo, w = poisson_weights(m, eps)
        ref_lo, ref = _oracle_weights(m, eps)
        assert k_lo == ref_lo
        assert _same_bits(w, ref)

    @pytest.mark.parametrize("m", [1e-9, 25.0, 3000.0])
    @pytest.mark.parametrize("eps", [1e-6, 1e-14])
    def test_truncation_point(self, m, eps):
        assert poisson_truncation_point(m, eps) == _oracle_truncation_point(m, eps)

    def test_weight_rows_match_per_rate_weights(self):
        ms = np.array([0.0, 40.0, 0.3, 40.0, 25.0, 7.5])
        k_lo, k_hi, W = poisson_weight_rows(ms)
        for row, lo, hi, m in zip(W, k_lo, k_hi, ms):
            ref_lo, ref = _oracle_weights(m)
            assert (lo, hi) == (ref_lo, ref_lo + ref.size - 1)
            assert _same_bits(row[lo : hi + 1], ref)
            assert not row[:lo].any() and not row[hi + 1 :].any()

    @pytest.mark.parametrize("seed", range(8))
    def test_transient_distribution(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        Q = random_generator(rng, n) * float(rng.uniform(0.5, 20.0))
        pi0 = rng.random(n)
        pi0 /= pi0.sum()
        times = list(rng.random(6) * 5.0)
        # Unsorted, with a duplicate and zeros.
        times += [0.0, times[1], 0.0]
        rng.shuffle(times)
        got = transient_distribution(Q, pi0, times)
        assert _same_bits(got, _oracle_transient(Q, pi0, times))

    @pytest.mark.parametrize("mapping", [MAPPING_A, MAPPING_B], ids=["A", "B"])
    def test_table1_makespan(self, mapping, monkeypatch):
        # Revision 1 of the passage backend sweeps the Table I grid.
        grid = np.linspace(0.0, 400.0, 200)
        oracle_calls = []

        def spy(*args, **kwargs):
            oracle_calls.append(args)
            return _oracle_transient(*args, **kwargs)

        with cache_override(False), pinned_revision("passage", "uniformization", 1):
            got = makespan_cdf(mapping, synthetic_workload(seed=3), grid)
            monkeypatch.setattr(transient, "transient_distribution", spy)
            ref = makespan_cdf(mapping, synthetic_workload(seed=3), grid)
        # The reference really went through the oracle, once per machine.
        machines = [m for m in MACHINES if mapping.applications_on(m)]
        assert len(oracle_calls) >= len(machines) > 0
        assert _same_bits(got.cdf, ref.cdf)
        assert _same_bits(got.mean, ref.mean)

    def test_repeat_solve_makes_no_lgamma_calls(self, monkeypatch):
        rng = np.random.default_rng(5)
        Q = random_generator(rng, 6) * 30.0
        times = np.linspace(0.0, 4.0, 50)
        pi0 = np.full(6, 1 / 6)
        first = transient_distribution(Q, pi0, times)
        calls = []
        real = math.lgamma
        monkeypatch.setattr(math, "lgamma", lambda x: calls.append(x) or real(x))
        again = transient_distribution(Q, pi0, times)
        assert calls == []
        assert _same_bits(first, again)


class TestLockstepWindowSweep:
    """The lockstep window search against the per-rate oracle on whole
    grids shaped like the makespan requests' (``lambda * linspace(0, 400,
    200)``), with rates spliced in at the edges of every phase."""

    EXTRA_RATES = [0.0, 1e-9, 24.9, 25.0, 25.1]

    def _check(self, ms, eps):
        k_lo, k_hi, W = poisson_weight_rows(ms, eps)
        for row, lo, hi, m in zip(W, k_lo, k_hi, ms):
            ref_lo, ref = _oracle_weights(m, eps)
            assert (lo, hi) == (ref_lo, ref_lo + ref.size - 1)
            assert _same_bits(row[lo : hi + 1], ref)
            assert not row[:lo].any() and not row[hi + 1 :].any()

    @pytest.mark.parametrize("lam", [0.05, 0.21, 0.85, 3.0])
    @pytest.mark.parametrize("eps", [1e-6, 1e-12, 1e-14])
    def test_windows_and_rows(self, lam, eps):
        grid = lam * np.linspace(0.0, 400.0, 200)
        self._check(np.concatenate([grid, self.EXTRA_RATES]), eps)

    @pytest.mark.parametrize("eps", [1e-6, 1e-12, 1e-14, 1e-30])
    def test_wide_rate_beside_the_edges(self, eps):
        # A separate batch: its rows span ~1e5 columns each.  Only an
        # epsilon far below 1e-14 makes the lower-tail walk take a step.
        self._check(np.array([*self.EXTRA_RATES, 3000.0, 1e5]), eps)

    @pytest.mark.parametrize("lam", [0.05, 0.85, 3.0])
    @pytest.mark.parametrize("eps", [1e-6, 1e-12, 1e-14])
    def test_sweep_truncation_point(self, lam, eps):
        ms = lam * np.linspace(0.0, 400.0, 200)
        k_lo, k_hi, W, k_max = uniformization_weights(ms, eps)
        assert k_max == _oracle_truncation_point(float(ms.max()), eps)
        ref = poisson_weight_rows(ms, eps)
        assert all(_same_bits(a, b) for a, b in zip((k_lo, k_hi, W), ref))

    def test_near_threshold_sums_use_math_log(self, monkeypatch):
        # Sums within the margin of log(epsilon) are recomputed with
        # math.log: an np.log one ulp off cannot reach them.
        rng = np.random.default_rng(0)
        x = 1.0 + rng.random(64) * 50.0
        log_eps = math.log(1e-12)
        exact = np.array([math.log(v) for v in x])
        head = log_eps - exact + rng.normal(0.0, 1e-9, 64)
        real_log = np.log
        monkeypatch.setattr(np, "log", lambda v: np.nextafter(real_log(v), np.inf))
        assert _same_bits(_log_terms(x, head, log_eps), head + exact)

    def test_rates_checked_in_order(self):
        with pytest.raises(ValueError, match="got -1.0"):
            poisson_weight_rows([1.0, -1.0, math.nan])


class TestLogFactorialTable:
    def test_entries_are_lgamma(self):
        table = _log_factorials(300)
        assert table.size >= 301
        assert _same_bits(table[:301], np.array([math.lgamma(j + 1) for j in range(301)]))

    def test_growth_leaves_held_tables_alone(self):
        held = _log_factorials(10)
        snapshot = held.copy()
        grown = _log_factorials(held.size + 50)
        assert grown is not held and grown.size > held.size
        assert _same_bits(held, snapshot)
        assert _same_bits(grown[: held.size], held)

    @pytest.mark.parametrize("capability", ["transient", "passage"])
    def test_long_dense_horizon_builds_no_table(self, capability, monkeypatch):
        # Regression: the truncation check after a dense ``expm`` solve
        # searched m ~ 1e9 through the table and grew it to ~1e9 entries.
        def bounded(k, real=poisson._log_factorials):
            assert k < 10**6, f"log-factorial table asked to cover k = {k}"
            return real(k)

        monkeypatch.setattr(poisson, "_log_factorials", bounded)
        size = poisson._LOG_FACTORIALS.size
        ir = ctmc_of(derive(get_model("active_badge"))).lower()
        params = {"targets": (1,)} if capability == "passage" else {}
        with cache_override(False):
            solve(ir, capability, backend="expm", times=[0.0, 1.2e9], **params)
        assert diagnostics.truncation_diagnostics(ir.generator, 1.2e9)["poisson_mean"] > 1e9
        assert poisson._LOG_FACTORIALS.size == size
