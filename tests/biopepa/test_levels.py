"""Bio-PEPA levels semantics."""

import numpy as np
import pytest

from repro.biopepa import levels_ctmc, ode_trajectory, parse_biopepa, population_ctmc
from repro.errors import BioPepaError, StateSpaceLimitError


def reversible(n: int, kf: float = 1.0, kr: float = 0.5):
    return parse_biopepa(
        f"""
        kf = {kf}; kr = {kr};
        kineticLawOf f : fMA(kf);
        kineticLawOf b : fMA(kr);
        A = (f, 1) << A + (b, 1) >> A;
        B = (f, 1) >> B + (b, 1) << B;
        A[{n}] <*> B[0]
        """
    )


class TestUnitStepEquivalence:
    def test_matches_population_ctmc(self):
        model = reversible(5)
        pc = population_ctmc(model)
        lc = levels_ctmc(model, step=1.0)
        assert pc.n_states == lc.n_states
        np.testing.assert_allclose(
            pc.generator.toarray(), lc.generator.toarray(), atol=1e-12
        )

    def test_same_steady_state(self):
        model = reversible(6)
        pc = population_ctmc(model)
        lc = levels_ctmc(model, step=1.0)
        np.testing.assert_allclose(
            sorted(pc.steady_state().pi), sorted(lc.steady_state().pi), atol=1e-10
        )


class TestRegistryRoute:
    """Levels chains solve through the backend registry, like population
    chains: same numbers, plus sentinels, manifests and the cache."""

    def test_lower_is_memoized(self):
        lc = levels_ctmc(reversible(4), step=0.5)
        assert lc.lower() is lc.lower()
        assert lc.lower().labels[0] == "8,0"

    def test_steady_matches_population_ctmc(self):
        model = reversible(5, kf=1.3, kr=0.7)
        pc = population_ctmc(model).steady_state()
        lc = levels_ctmc(model, step=1.0).steady_state()
        np.testing.assert_array_equal(pc.pi, lc.pi)
        assert lc.meta["diagnostics"]["capability"] == "steady"
        assert lc.meta["manifest"].capability == "steady"

    def test_transient_matches_population_ctmc(self):
        model = reversible(5, kf=1.3, kr=0.7)
        times = np.linspace(0.0, 3.0, 7)
        pc = population_ctmc(model).transient(times)
        lc = levels_ctmc(model, step=1.0).transient(times)
        np.testing.assert_array_equal(pc, lc)


class TestRefinement:
    def test_finer_step_more_states(self):
        model = reversible(4)
        coarse = levels_ctmc(model, step=1.0)
        fine = levels_ctmc(model, step=0.5)
        assert fine.n_states > coarse.n_states

    def test_concentration_accessors(self):
        lc = levels_ctmc(reversible(4), step=0.5)
        # Initial state is state 0: A=4.0 means level 8.
        np.testing.assert_allclose(lc.concentrations(0), [4.0, 0.0])
        assert lc.state_index([8, 0]) == 0

    def test_expected_concentration_tracks_ode(self):
        model = reversible(4, kf=1.0, kr=1.0)
        lc = levels_ctmc(model, step=0.5)
        times = np.linspace(0.0, 2.0, 5)
        dist = lc.transient(times)
        means = np.array([lc.expected_concentration(d, "A") for d in dist])
        ode = ode_trajectory(model, times)
        # Linear (unimolecular) kinetics: lattice mean equals the ODE.
        np.testing.assert_allclose(means, ode.of("A"), atol=1e-6)

    def test_mass_conserved_on_lattice(self):
        lc = levels_ctmc(reversible(5), step=0.5)
        totals = lc.states.sum(axis=1)
        assert (totals == totals[0]).all()


class TestBoundaries:
    def test_cap_blocks_production(self):
        # A -> A + B (autocatalytic-ish open production) with a tight cap
        # on B: the chain stays finite.
        model = parse_biopepa(
            """
            k = 1.0;
            kineticLawOf make : fMA(k);
            A = (make, 1) (+) A;
            B = (make, 1) >> B;
            A[1] <*> B[0]
            """
        )
        lc = levels_ctmc(model, step=1.0, max_amounts={"B": 3.0, "A": 1.0})
        assert lc.n_states == 4  # B levels 0..3
        assert lc.states[:, lc.model.species_index("B")].max() == 3

    def test_unbounded_production_hits_state_cap(self):
        model = parse_biopepa(
            """
            k = 1.0;
            kineticLawOf make : fMA(k);
            A = (make, 1) (+) A;
            B = (make, 1) >> B;
            A[1] <*> B[0]
            """
        )
        with pytest.raises(StateSpaceLimitError):
            levels_ctmc(model, step=1.0, max_amounts={"B": 1e9, "A": 1.0}, max_states=50)


class TestErrors:
    def test_bad_step(self):
        with pytest.raises(BioPepaError, match="positive"):
            levels_ctmc(reversible(3), step=0.0)

    def test_off_lattice_initial(self):
        model = parse_biopepa(
            "k = 1.0;\nkineticLawOf d : fMA(k);\nA = (d, 1) << A;\nA[3]"
        )
        with pytest.raises(BioPepaError, match="multiples"):
            levels_ctmc(model, step=2.0)

    def test_cap_below_initial(self):
        with pytest.raises(BioPepaError, match="above its maximum"):
            levels_ctmc(reversible(5), step=1.0, max_amounts={"A": 2.0, "B": 5.0})
