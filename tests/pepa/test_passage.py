"""Passage-time engine against the hypoexponential oracle and dense expm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NumericsError
from repro.numerics.hypoexp import hypoexp_cdf, hypoexp_mean
from repro.pepa import ctmc_of, derive, parse_model
from repro.pepa.passage import (
    passage_time_cdf,
    passage_time_mean,
    passage_time_quantile,
)


def sequential_chain(rates: list[float]):
    """Build S0 -> S1 -> ... -> Done with the given stage rates.

    The finishing time is hypoexponential with exactly those rates —
    the analytic oracle for the engine.
    """
    lines = []
    for i, r in enumerate(rates):
        nxt = "Done" if i == len(rates) - 1 else f"S{i + 1}"
        lines.append(f"S{i} = (step{i}, {r!r}).{nxt};")
    lines.append("Done = (stuck, 1.0).Done;")
    lines.append("Blocker = (never, 1.0).Blocker;")
    lines.append("S0 <stuck> Blocker")
    return ctmc_of(derive(parse_model("\n".join(lines))))


class TestHypoexpOracle:
    @given(
        rates=st.lists(st.floats(min_value=0.2, max_value=8.0), min_size=1, max_size=5)
    )
    @settings(max_examples=30, deadline=None)
    def test_cdf_matches_closed_form(self, rates):
        chain = sequential_chain(rates)
        horizon = 4.0 * hypoexp_mean(rates)
        times = np.linspace(0.0, horizon, 25)
        result = passage_time_cdf(chain, ("S0", "Done"), times)
        expected = hypoexp_cdf(rates, times)
        np.testing.assert_allclose(result.cdf, expected, atol=1e-8)

    @given(
        rates=st.lists(st.floats(min_value=0.2, max_value=8.0), min_size=1, max_size=5)
    )
    @settings(max_examples=30, deadline=None)
    def test_mean_matches_closed_form(self, rates):
        chain = sequential_chain(rates)
        assert passage_time_mean(chain, ("S0", "Done")) == pytest.approx(
            hypoexp_mean(rates), rel=1e-9
        )


class TestMethods:
    def test_uniformization_vs_expm(self):
        chain = sequential_chain([1.0, 2.0, 4.0])
        times = np.linspace(0.0, 6.0, 13)
        uni = passage_time_cdf(chain, ("S0", "Done"), times, method="uniformization")
        exp = passage_time_cdf(chain, ("S0", "Done"), times, method="expm")
        np.testing.assert_allclose(uni.cdf, exp.cdf, atol=1e-9)

    def test_unknown_method(self):
        chain = sequential_chain([1.0])
        with pytest.raises(ValueError, match="unknown passage-time method"):
            passage_time_cdf(chain, ("S0", "Done"), [1.0], method="magic")


class TestTargets:
    def test_predicate_target(self):
        chain = sequential_chain([2.0])
        times = np.linspace(0.0, 4.0, 9)
        result = passage_time_cdf(
            chain,
            lambda space, i: "Done" in space.state_label(i),
            times,
        )
        np.testing.assert_allclose(result.cdf, 1.0 - np.exp(-2.0 * times), atol=1e-9)

    def test_index_target(self):
        chain = sequential_chain([2.0])
        done_states = chain.space.states_with_local("S0", "Done")
        result = passage_time_cdf(chain, done_states, [1.0])
        assert 0 < result.cdf[0] < 1

    def test_empty_target_rejected(self):
        chain = sequential_chain([1.0])
        with pytest.raises(NumericsError, match="empty"):
            passage_time_cdf(chain, [], [1.0])

    def test_custom_source(self):
        chain = sequential_chain([1.0, 5.0])
        # Starting from S1 the passage is a single Exp(5).
        s1 = chain.space.states_with_local("S0", "S1")
        times = np.linspace(0.0, 2.0, 7)
        result = passage_time_cdf(chain, ("S0", "Done"), times, source=s1)
        np.testing.assert_allclose(result.cdf, 1.0 - np.exp(-5.0 * times), atol=1e-9)

    def test_empty_source_rejected(self):
        chain = sequential_chain([1.0])
        with pytest.raises(NumericsError, match="source"):
            passage_time_cdf(chain, ("S0", "Done"), [1.0], source=[])


class TestQuantiles:
    def test_median_of_exponential(self):
        chain = sequential_chain([1.0])
        median = passage_time_quantile(chain, ("S0", "Done"), 0.5)
        assert median == pytest.approx(np.log(2.0), rel=1e-3)

    def test_quantile_monotone_in_q(self):
        chain = sequential_chain([1.0, 2.0])
        q25 = passage_time_quantile(chain, ("S0", "Done"), 0.25)
        q75 = passage_time_quantile(chain, ("S0", "Done"), 0.75)
        assert q25 < q75

    def test_unreachable_quantile_raises(self):
        chain = sequential_chain([1.0])
        times = np.linspace(0.0, 0.1, 5)  # tiny horizon: CDF << 0.99
        result = passage_time_cdf(chain, ("S0", "Done"), times)
        with pytest.raises(NumericsError, match="extend the time horizon"):
            result.quantile(0.99)

    def test_bad_level_rejected(self):
        chain = sequential_chain([1.0])
        result = passage_time_cdf(chain, ("S0", "Done"), [0.0, 1.0])
        with pytest.raises(ValueError):
            result.quantile(1.5)


class TestResultProperties:
    def test_cdf_monotone_bounded(self):
        chain = sequential_chain([0.7, 1.3, 2.2])
        times = np.linspace(0.0, 20.0, 60)
        result = passage_time_cdf(chain, ("S0", "Done"), times)
        assert (np.diff(result.cdf) >= -1e-12).all()
        assert result.cdf[0] == pytest.approx(0.0, abs=1e-12)
        assert result.cdf[-1] == pytest.approx(1.0, abs=1e-4)

    def test_mean_positive(self):
        chain = sequential_chain([1.0, 1.0])
        result = passage_time_cdf(chain, ("S0", "Done"), [0.0, 1.0])
        assert result.mean == pytest.approx(2.0, rel=1e-9)

    def test_result_is_the_registry_solution(self):
        # One passage result type: the frontend returns the registry's
        # solution and adds its own keys to the solve's metadata.
        from repro.ir.backends import PassageSolution
        from repro.pepa import PassageTimeResult

        chain = sequential_chain([1.0, 2.0])
        result = passage_time_cdf(chain, ("S0", "Done"), [0.0, 1.0, 2.0])
        assert PassageTimeResult is PassageSolution
        assert type(result) is PassageSolution
        assert result.meta["backend"] == "uniformization"
        assert result.meta["n_states"] == chain.n_states
        assert result.meta["method"] == "uniformization"
        assert "diagnostics" in result.meta
