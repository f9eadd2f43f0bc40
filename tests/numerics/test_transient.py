"""Transient analysis: uniformization vs matrix exponential, absorption CDFs,
hitting times."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NumericsError
from repro.numerics.generator import absorbing
from repro.numerics.poisson import poisson_weights
from repro.numerics.transient import (
    absorption_cdf,
    absorption_plan,
    backward_transient,
    expected_hitting_time,
    planned_truncation,
    swept_absorption_cdf,
    take_truncation,
    transient_distribution,
)
from tests.conftest import random_generator


def two_state(a: float, b: float) -> sp.csr_matrix:
    return sp.csr_matrix(np.array([[-a, a], [b, -b]]))


class TestTransientDistribution:
    def test_time_zero_is_initial(self):
        Q = two_state(1.0, 2.0)
        out = transient_distribution(Q, [1.0, 0.0], [0.0])
        np.testing.assert_allclose(out[0], [1.0, 0.0], atol=1e-12)

    def test_two_state_closed_form(self):
        a, b = 1.5, 0.5
        Q = two_state(a, b)
        times = np.linspace(0.0, 5.0, 11)
        out = transient_distribution(Q, [1.0, 0.0], times)
        s = a + b
        expected_p1 = (a / s) * (1.0 - np.exp(-s * times))
        np.testing.assert_allclose(out[:, 1], expected_p1, atol=1e-10)

    @given(seed=st.integers(0, 5000), n=st.integers(2, 12), t=st.floats(0.01, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_matches_expm(self, seed, n, t):
        rng = np.random.default_rng(seed)
        Q = random_generator(rng, n)
        pi0 = np.zeros(n)
        pi0[0] = 1.0
        out = transient_distribution(Q, pi0, [t])
        ref = pi0 @ scipy.linalg.expm(Q.toarray() * t)
        np.testing.assert_allclose(out[0], ref, atol=1e-8)

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(3)
        Q = random_generator(rng, 10)
        pi0 = np.full(10, 0.1)
        out = transient_distribution(Q, pi0, np.linspace(0, 20, 7))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert (out >= -1e-12).all()

    def test_converges_to_steady_state(self):
        from repro.numerics.steady import steady_state

        rng = np.random.default_rng(11)
        Q = random_generator(rng, 8)
        pi0 = np.zeros(8)
        pi0[0] = 1.0
        out = transient_distribution(Q, pi0, [200.0])
        pi = steady_state(Q).pi
        np.testing.assert_allclose(out[0], pi, atol=1e-6)

    def test_unordered_times_preserved(self):
        Q = two_state(1.0, 1.0)
        out = transient_distribution(Q, [1.0, 0.0], [2.0, 0.5])
        ref_05 = transient_distribution(Q, [1.0, 0.0], [0.5])
        np.testing.assert_allclose(out[1], ref_05[0], atol=1e-10)

    def test_empty_times(self):
        out = transient_distribution(two_state(1, 1), [1.0, 0.0], [])
        assert out.shape == (0, 2)

    def test_bad_initial_rejected(self):
        with pytest.raises(NumericsError):
            transient_distribution(two_state(1, 1), [0.7, 0.7], [1.0])
        with pytest.raises(NumericsError):
            transient_distribution(two_state(1, 1), [1.0], [1.0])

    def test_negative_time_rejected(self):
        with pytest.raises(NumericsError):
            transient_distribution(two_state(1, 1), [1.0, 0.0], [-1.0])

    @pytest.mark.parametrize("times", [[0.0, np.nan], [np.inf], [1.0, -np.inf]])
    def test_non_finite_time_rejected(self, times):
        # Regression: NaN passed ``times.min() < 0`` and inf reached int()
        # as a bare ValueError / OverflowError.
        with pytest.raises(NumericsError, match="finite"):
            transient_distribution(two_state(1, 1), [1.0, 0.0], times)


class TestBackwardTransient:
    def test_duality_with_forward(self):
        # pi0 @ expm(Qt) @ z == pi0 @ backward(z, t) for any pi0, z.
        rng = np.random.default_rng(8)
        Q = random_generator(rng, 9)
        z = rng.random(9)
        t = 1.7
        u = backward_transient(Q, z, t)
        for start in range(9):
            pi0 = np.eye(9)[start]
            forward = transient_distribution(Q, pi0, [t])[0]
            assert forward @ z == pytest.approx(u[start], rel=1e-7)

    def test_matches_expm(self):
        rng = np.random.default_rng(9)
        Q = random_generator(rng, 7)
        z = rng.random(7)
        t = 2.3
        ref = scipy.linalg.expm(Q.toarray() * t) @ z
        np.testing.assert_allclose(backward_transient(Q, z, t), ref, atol=1e-9)

    def test_time_zero_identity(self):
        Q = two_state(1.0, 2.0)
        z = np.array([0.3, 0.9])
        np.testing.assert_allclose(backward_transient(Q, z, 0.0), z)

    def test_constant_reward_preserved(self):
        # expm(Qt) is stochastic: a constant reward stays constant.
        rng = np.random.default_rng(10)
        Q = random_generator(rng, 6)
        u = backward_transient(Q, np.ones(6), 3.0)
        np.testing.assert_allclose(u, 1.0, atol=1e-9)

    def test_bad_inputs(self):
        Q = two_state(1.0, 2.0)
        with pytest.raises(NumericsError, match="shape"):
            backward_transient(Q, [1.0], 1.0)
        with pytest.raises(NumericsError, match="non-negative"):
            backward_transient(Q, [1.0, 0.0], -1.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(NumericsError, match="finite"):
            backward_transient(two_state(1.0, 2.0), [1.0, 0.0], t)


class TestAbsorptionCdf:
    def test_single_exponential(self):
        # 0 -> 1 at rate r; first passage to 1 is Exp(r).
        r = 2.5
        Q = sp.csr_matrix(np.array([[-r, r], [0.0, 0.0]]))
        times = np.linspace(0.0, 3.0, 13)
        cdf = absorption_cdf(Q, [1.0, 0.0], [1], times)
        np.testing.assert_allclose(cdf, 1.0 - np.exp(-r * times), atol=1e-10)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(5)
        Q = random_generator(rng, 9)
        times = np.linspace(0.0, 10.0, 40)
        cdf = absorption_cdf(Q, np.eye(9)[0], [8], times)
        assert (np.diff(cdf) >= -1e-10).all()
        assert cdf.min() >= 0.0 and cdf.max() <= 1.0 + 1e-12

    def test_empty_target_rejected(self):
        with pytest.raises(NumericsError, match="empty"):
            absorption_cdf(two_state(1, 1), [1.0, 0.0], [], [1.0])

    def test_out_of_range_target_rejected(self):
        with pytest.raises(NumericsError, match="out of range"):
            absorption_cdf(two_state(1, 1), [1.0, 0.0], [5], [1.0])

    def test_starting_in_target(self):
        Q = two_state(1.0, 1.0)
        cdf = absorption_cdf(Q, [0.0, 1.0], [1], [0.0, 1.0])
        np.testing.assert_allclose(cdf, [1.0, 1.0])


    def test_repeated_target_counted_once(self):
        # Regression: [1, 1] summed state 1's mass twice, so the CDF
        # climbed to 2 while the (set-based) mean stayed right.
        rng = np.random.default_rng(11)
        Q = random_generator(rng, 5)
        times = np.linspace(0.0, 3.0, 7)
        pi0 = np.eye(5)[0]
        once = absorption_cdf(Q, pi0, [1, 3], times)
        repeated = absorption_cdf(Q, pi0, [1, 3, 1, 3, 3], times)
        assert once.tobytes() == repeated.tobytes()

    @staticmethod
    def _lil_route(Q, target):
        # The zeroing the direct one replaced: CSR -> LIL -> CSR.
        Q = sp.csr_matrix(Q, dtype=np.float64, copy=True).tolil()
        for s in dict.fromkeys(target):
            Q.rows[s] = []
            Q.data[s] = []
        return Q.tocsr()

    def _absorbing_generator(self, Q, target, monkeypatch):
        from repro.numerics import transient

        seen = []
        real = transient.transient_distribution
        monkeypatch.setattr(
            transient, "transient_distribution",
            lambda Qa, *args: seen.append(Qa) or real(Qa, *args),
        )
        absorption_cdf(Q, np.full(Q.shape[0], 1.0 / Q.shape[0]), target, [0.0, 1.0])
        return seen[0]

    def _assert_same_arrays(self, got, ref):
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    @pytest.mark.parametrize("seed", range(10))
    def test_target_rows_zeroed_as_the_lil_route(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        Q = random_generator(rng, n)
        target = [int(s) for s in rng.integers(0, n, size=int(rng.integers(1, 6)))]
        target += target[:1]  # a repeated target
        got = self._absorbing_generator(Q, target, monkeypatch)
        self._assert_same_arrays(got, self._lil_route(Q, target))

    def test_non_canonical_input_left_alone(self, monkeypatch):
        # Unsorted column indices and a duplicate entry: the zeroing
        # canonicalizes its own copy, like the LIL route, not the caller's.
        data = np.array([2.0, -3.0, 1.0, -1.0, 1.0, 0.5, 0.5, -1.0])
        indices = np.array([1, 0, 2, 1, 0, 2, 2, 2])
        indptr = np.array([0, 3, 5, 8])
        Q = sp.csr_matrix((data, indices, indptr), shape=(3, 3))
        got = self._absorbing_generator(Q, [1], monkeypatch)
        assert np.array_equal(Q.indices, indices) and np.array_equal(Q.data, data)
        self._assert_same_arrays(got, self._lil_route(Q, [1]))

    @pytest.mark.parametrize("mapping", ["A", "B"])
    def test_table1_machines_zeroed_as_the_lil_route(self, mapping, monkeypatch):
        from repro.allocation import MAPPING_A, MAPPING_B, synthetic_workload
        from repro.allocation.cdf import makespan_cdf
        from repro.engine import cache_override
        from repro.ir.backends import markov
        from repro.numerics import transient

        inputs, absorbing = [], []
        real_cdf, real_plan = markov.absorption_cdf, transient.absorption_plan

        def cdf_spy(Q, pi0, target, *args):
            inputs.append((Q, target))
            return real_cdf(Q, pi0, target, *args)

        # Either kernel receives the absorbed generator through the plan.
        def plan_spy(Qa, *args):
            absorbing.append(Qa)
            return real_plan(Qa, *args)

        monkeypatch.setattr(markov, "absorption_cdf", cdf_spy)
        monkeypatch.setattr(transient, "absorption_plan", plan_spy)
        mapping = {"A": MAPPING_A, "B": MAPPING_B}[mapping]
        with cache_override(False):
            makespan_cdf(mapping, synthetic_workload(), np.linspace(0.0, 400.0, 20))
        assert len(inputs) == len(absorbing) == 5
        for (Q, target), got in zip(inputs, absorbing):
            self._assert_same_arrays(got, self._lil_route(Q, target))


class TestSteppedKernel:
    """``absorption_cdf``'s stepped propagator on uniform grids from 0,
    against the sweep (revision 1's kernel) and the dense exponential."""

    BOUND = 1e-12  # the truncation mass, plus round-off

    @staticmethod
    def _expm_cdf(Q, pi0, target, times):
        Qa = Q.toarray()
        Qa[target, :] = 0.0
        return np.array([(pi0 @ scipy.linalg.expm(Qa * t))[target].sum() for t in times])

    @pytest.mark.parametrize("seed", range(12))
    def test_stepped_matches_sweep_and_expm(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 16))
        Q = random_generator(rng, n) * float(rng.uniform(0.2, 10.0))
        pi0 = rng.random(n)
        pi0 /= pi0.sum()
        target = [int(s) for s in rng.choice(n, size=int(rng.integers(1, n)), replace=False)]
        times = np.linspace(0.0, float(rng.uniform(1.0, 30.0)), int(rng.integers(60, 300)))
        take_truncation()
        stepped = absorption_cdf(Q, pi0, target, times)
        assert take_truncation()["kernel"] == "stepped"
        swept = swept_absorption_cdf(Q, pi0, target, times)
        assert np.abs(stepped - swept).max() <= self.BOUND
        expm = self._expm_cdf(Q, pi0, target, times[:: max(1, times.size // 12)])
        assert np.abs(stepped[:: max(1, times.size // 12)] - expm).max() <= self.BOUND

    @pytest.mark.parametrize(
        "times",
        [
            np.array([0.0, 0.5, 1.5, 2.0, 4.0]),  # non-uniform
            np.linspace(0.5, 4.0, 50),  # starts after 0
            np.linspace(0.0, 4.0, 50)[::-1],  # descending
            np.array([0.0, 4.0]),  # N = 2
            np.array([3.0]),  # N = 1
            np.linspace(0.0, 0.0, 5),  # no step
        ],
        ids=["nonuniform", "t0", "descending", "two", "one", "zero"],
    )
    def test_other_grids_keep_the_sweep_bits(self, times):
        rng = np.random.default_rng(3)
        Q = random_generator(rng, 6) * 3.0
        pi0 = np.eye(6)[0]
        take_truncation()
        got = absorption_cdf(Q, pi0, [5], times)
        assert take_truncation()["kernel"] == "sweep"
        assert got.tobytes() == swept_absorption_cdf(Q, pi0, [5], times).tobytes()

    def test_linspace_endpoint_ulps_off_still_steps(self):
        times = np.linspace(0.0, 7.3, 101)
        times[-1] = np.nextafter(times[-1], np.inf)
        Qa = absorbing(random_generator(np.random.default_rng(4), 5), [4])
        assert absorption_plan(Qa, times)[1] is not None
        times[50] += 1e-9  # far more than a few ulps
        assert absorption_plan(Qa, times)[1] is None

    def test_a_chain_on_each_side_of_the_cost_rule(self):
        times = np.linspace(0.0, 20.0, 200)
        small = absorbing(random_generator(np.random.default_rng(5), 8), [7])
        lam, step = absorption_plan(small, times)
        assert step is not None
        # A sparse ring of 400 states: one dense product costs n^3, far
        # above the sweep's mat-vecs over ~2n entries.
        n = 400
        ring = sp.diags([-np.ones(n), np.ones(n - 1)], [0, 1], format="csr")
        ring = absorbing(ring, [n - 1])
        assert absorption_plan(ring, times)[1] is None
        take_truncation()
        cdf = absorption_cdf(ring, np.eye(n)[0], [n - 1], times)
        assert take_truncation()["kernel"] == "sweep"
        assert cdf.tobytes() == swept_absorption_cdf(
            ring, np.eye(n)[0], [n - 1], times
        ).tobytes()

    def test_truncation_is_split_across_the_steps(self):
        times = np.linspace(0.0, 5.0, 101)
        Q = random_generator(np.random.default_rng(6), 6)
        take_truncation()
        absorption_cdf(Q, np.eye(6)[0], [5], times, epsilon=1e-10)
        noted = take_truncation()
        lam, (dt, k_lo, w) = absorption_plan(absorbing(Q, [5]), times, 1e-10)
        assert (dt, noted["uniformization_rate"]) == (0.05, lam)
        assert noted["poisson_mean"] == lam * dt
        assert noted["truncation_k"] == k_lo + w.size - 1
        assert noted["truncation_mass"] == 1e-10
        # epsilon / (N - 1) per step, so the 100 steps stay within epsilon.
        ref_lo, ref_w = poisson_weights(lam * dt, 1e-10 / 100)
        assert k_lo == ref_lo and w.tobytes() == ref_w.tobytes()
        assert noted == planned_truncation(Q, times, 1e-10, targets=[5])


class TestHittingTime:
    def test_single_exponential_mean(self):
        r = 4.0
        Q = sp.csr_matrix(np.array([[-r, r], [0.0, 0.0]]))
        assert expected_hitting_time(Q, [1.0, 0.0], [1]) == pytest.approx(1.0 / r)

    def test_erlang_chain_mean(self):
        # 0 -> 1 -> 2 -> 3, each at rate r: mean = 3/r.
        r = 2.0
        Q = np.zeros((4, 4))
        for i in range(3):
            Q[i, i + 1] = r
            Q[i, i] = -r
        pi0 = np.array([1.0, 0, 0, 0])
        assert expected_hitting_time(sp.csr_matrix(Q), pi0, [3]) == pytest.approx(3.0 / r)

    def test_already_in_target(self):
        Q = two_state(1.0, 1.0)
        assert expected_hitting_time(Q, [0.0, 1.0], [0, 1]) == 0.0

    def test_two_state_round_trip(self):
        # From state 0 to state 1 in the 2-state chain: Exp(a).
        a, b = 3.0, 7.0
        assert expected_hitting_time(two_state(a, b), [1.0, 0.0], [1]) == pytest.approx(1 / a)

    def test_mean_consistent_with_cdf(self):
        rng = np.random.default_rng(17)
        Q = random_generator(rng, 7)
        pi0 = np.eye(7)[0]
        mean = expected_hitting_time(Q, pi0, [6])
        # Numerically integrate 1-F via the CDF on a long horizon.
        times = np.linspace(0.0, 40 * mean, 4000)
        cdf = absorption_cdf(Q, pi0, [6], times)
        integral = float(np.trapezoid(1.0 - cdf, times))
        assert integral == pytest.approx(mean, rel=1e-3)

    def test_unreachable_target_raises(self):
        # State 1 cannot reach state 2 in this chain.
        Q = np.array(
            [[-1.0, 0.5, 0.5], [0.0, 0.0, 0.0], [0.0, 1.0, -1.0]]
        )
        with pytest.raises(NumericsError):
            expected_hitting_time(sp.csr_matrix(Q), [1.0, 0.0, 0.0], [2])
