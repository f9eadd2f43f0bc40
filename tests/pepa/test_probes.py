"""Stochastic probes: non-perturbation and passage-time correctness."""

import numpy as np
import pytest

from repro.errors import IllFormedModelError, PepaError
from repro.pepa import (
    attach_probe,
    ctmc_of,
    derive,
    parse_model,
    probe_passage_time,
    throughput,
)
from repro.pepa.probes import PROBE_RUNNING, PROBE_STOPPED

TWO_STATE = "P = (a, 1.0).Q; Q = (b, 3.0).P; P"


class TestAttach:
    def test_probe_component_added(self):
        model = parse_model(TWO_STATE)
        probed = attach_probe(model, "a", "b")
        assert probed.process_body(PROBE_STOPPED) is not None
        assert probed.process_body(PROBE_RUNNING) is not None

    def test_probe_does_not_perturb_throughput(self):
        model = parse_model(TWO_STATE)
        plain = ctmc_of(derive(model))
        probed = ctmc_of(derive(attach_probe(model, "a", "b")))
        for action in ("a", "b"):
            assert throughput(plain, action) == pytest.approx(
                throughput(probed, action), rel=1e-12
            )

    def test_probe_does_not_perturb_multicomponent_model(self):
        source = """
        P = (go, 2.0).P1; P1 = (done, 1.0).P;
        R = (go, infty).R1; R1 = (reset, 5.0).R;
        P <go> R
        """
        model = parse_model(source)
        plain = ctmc_of(derive(model))
        probed = ctmc_of(derive(attach_probe(model, "go", "reset")))
        assert throughput(plain, "go") == pytest.approx(throughput(probed, "go"))

    def test_unknown_action_rejected(self):
        with pytest.raises(IllFormedModelError, match="alphabet"):
            attach_probe(parse_model(TWO_STATE), "zz", "b")

    def test_same_action_rejected(self):
        with pytest.raises(IllFormedModelError, match="differ"):
            attach_probe(parse_model(TWO_STATE), "a", "a")

    def test_name_clash_rejected(self):
        model = parse_model(
            "ProbeStopped = (a, 1.0).Q; Q = (b, 1.0).ProbeStopped; ProbeStopped"
        )
        with pytest.raises(IllFormedModelError, match="already defines"):
            attach_probe(model, "a", "b")


class TestPassage:
    def test_two_state_closed_form(self):
        # After an 'a' completes, the next 'b' is Exp(3).
        times = np.linspace(0.0, 3.0, 16)
        result = probe_passage_time(parse_model(TWO_STATE), "a", "b", times)
        np.testing.assert_allclose(result.cdf, 1.0 - np.exp(-3.0 * times), atol=1e-8)
        assert result.mean == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_erlang_between_first_and_last(self):
        # a -> (x at r1) -> (y at r2) -> b: passage a->b is hypoexp(r1, r2)+...
        source = """
        S0 = (a, 1.0).S1; S1 = (x, 2.0).S2; S2 = (y, 4.0).S3; S3 = (b, 8.0).S0;
        S0
        """
        from repro.numerics.hypoexp import hypoexp_cdf, hypoexp_mean

        times = np.linspace(0.0, 6.0, 25)
        result = probe_passage_time(parse_model(source), "a", "b", times)
        rates = [2.0, 4.0, 8.0]
        np.testing.assert_allclose(result.cdf, hypoexp_cdf(rates, times), atol=1e-8)
        assert result.mean == pytest.approx(hypoexp_mean(rates), rel=1e-9)

    def test_cdf_properties(self):
        source = """
        P = (req, 2.0).P1; P1 = (work, 1.5).P2; P2 = (reply, 4.0).P;
        P
        """
        times = np.linspace(0.0, 10.0, 40)
        result = probe_passage_time(parse_model(source), "req", "reply", times)
        assert result.cdf[0] == pytest.approx(0.0, abs=1e-12)
        assert (np.diff(result.cdf) >= -1e-12).all()
        assert result.cdf[-1] > 0.99

    def test_probe_on_cooperating_components(self):
        source = """
        C = (request, 2.0).C1; C1 = (respond, infty).C;
        S = (request, infty).S1; S1 = (respond, 3.0).S;
        C <request, respond> S
        """
        times = np.linspace(0.0, 4.0, 17)
        result = probe_passage_time(parse_model(source), "request", "respond", times)
        # request -> respond is a single Exp(3) stage.
        np.testing.assert_allclose(result.cdf, 1.0 - np.exp(-3.0 * times), atol=1e-8)

    def test_passage_runs_through_the_registry(self):
        # The flux-weighted passage is a registry solve: it names its
        # backend, carries the trust diagnostics and a solve manifest.
        times = np.linspace(0.0, 3.0, 16)
        result = probe_passage_time(parse_model(TWO_STATE), "a", "b", times)
        assert result.meta["backend"] == "uniformization"
        assert result.meta["diagnostics"]
        assert result.meta["manifest"].capability == "passage"

    def test_no_flux_rejected(self):
        # 'b' is enabled by the alphabet but 'a' never fires: shared 'a'
        # blocks because only one cooperand performs it.
        source = """
        P = (a, 1.0).P1; P1 = (b, 1.0).P;
        R = (b, infty).R;
        Q = (c, 1.0).Q;
        (P <a> Q) <b> R
        """
        with pytest.raises(PepaError, match="never starts"):
            probe_passage_time(parse_model(source), "a", "b", [1.0])
