"""Population-form derivation: orbit canonicalization, agreement with
explicit + lump, registry integration, trust-layer sentinels."""

import dataclasses
import math

import numpy as np
import pytest

from repro.errors import NumericalTrustError, StateSpaceLimitError
from repro.pepa import (
    canonical_partition,
    ctmc_of,
    derive,
    derive_population,
    has_replicated_symmetry,
    parse_model,
    population_markov_ir,
    replicated_cluster_count,
    verify_population_agreement,
)
from repro.pepa.models import MODEL_NAMES, get_model

PC_LAN = """
lam = 0.4; mu = 5.0;
PC = (think, lam).PCready;
PCready = (send, infty).PC;
Medium = (send, mu).Medium;
PC[{n}] <send> Medium
"""

TWO_SEGMENT = """
lam = 0.4; mu = 5.0;
PC = (think, lam).PCready;
PCready = (send, infty).PC;
Medium1 = (send, mu).Medium1;
Medium2 = (send, mu).Medium2;
(PC[{n}] <send> Medium1) || (PC[{n}] <send> Medium2)
"""


def pc_lan(n):
    return parse_model(PC_LAN.format(n=n))


def table1_model():
    from repro.allocation import MAPPING_A, synthetic_workload
    from repro.allocation.machines import build_machine_model

    return build_machine_model(MAPPING_A, "M1", synthetic_workload(seed=2019))


class TestSymmetryDetection:
    def test_pc_lan_has_symmetry(self):
        assert has_replicated_symmetry(pc_lan(4))
        assert replicated_cluster_count(pc_lan(4)) == 1

    def test_two_segment_has_clusters(self):
        # Each segment's PCs form a cluster, and the two identical
        # segments form a cluster of clusters.
        assert replicated_cluster_count(parse_model(TWO_SEGMENT.format(n=3))) >= 2

    def test_asymmetric_model_has_none(self):
        model = parse_model(
            "A = (x, 1.0).A1; A1 = (y, 1.0).A; "
            "B = (x, 2.0).B1; B1 = (y, 2.0).B; A || B"
        )
        assert not has_replicated_symmetry(model)


class TestOrbitStructure:
    def test_pc_lan_orbit_counts(self):
        space = derive_population(pc_lan(6))
        info = space.orbit_info
        assert space.size == 7  # 0..6 PCs ready
        # Orbit sizes are the binomial coefficients; their sum is the
        # explicit state count (orbit-count conservation, exact).
        assert sorted(int(s) for s in info.orbit_sizes) == sorted(
            math.comb(6, k) for k in range(7)
        )
        assert info.full_states == 2 ** 6 == derive(pc_lan(6)).size

    def test_initial_orbit_is_trivial(self):
        # Replicas start identical, so the initial state's orbit has
        # exactly one member.
        space = derive_population(pc_lan(5))
        assert space.orbit_info.orbit_sizes[space.initial_state] == 1.0

    def test_population_counts_conserve_replicas(self):
        space = derive_population(pc_lan(6))
        info = space.orbit_info
        for g in range(info.n_groups):
            cols = np.flatnonzero(np.asarray(info.column_group) == g)
            np.testing.assert_array_equal(
                info.counts[:, cols].sum(axis=1),
                info.group_totals[g],
            )

    def test_expected_populations_at_initial(self):
        ir = population_markov_ir(pc_lan(6))
        pi0 = ir.initial_distribution()
        pops = ir.orbits.expected_populations(pi0)
        # All six PCs think initially.
        assert pops.get("PC") == pytest.approx(6.0)

    def test_nested_two_segment_quotient(self):
        # 4^n per-segment configurations with both replica levels
        # quotiented: cluster-of-clusters canonicalization works.
        model = parse_model(TWO_SEGMENT.format(n=3))
        space = derive_population(model)
        exp = derive(model)
        assert space.size < exp.size
        assert space.orbit_info.full_states == exp.size


class TestAgreementOracle:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_bundled_models_agree(self, name):
        report = verify_population_agreement(get_model(name))
        assert report["max_rel_diff"] <= 1e-9

    def test_table1_machine_model_agrees(self):
        report = verify_population_agreement(table1_model())
        assert report["max_rel_diff"] <= 1e-9

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_pc_lan_sizes(self, n):
        report = verify_population_agreement(pc_lan(n))
        assert report["population_states"] == n + 1
        assert report["explicit_states"] == 2 ** n

    def test_two_segment_agrees(self):
        report = verify_population_agreement(parse_model(TWO_SEGMENT.format(n=3)))
        assert report["max_rel_diff"] <= 1e-9


class TestProjectedMeasures:
    def _projection(self, model):
        """(explicit ir, population ir, orbit-membership projection)."""
        space = derive(model)
        pop = derive_population(model)
        index = {s: i for i, s in enumerate(pop.states)}
        keys = canonical_partition(model, space)
        proj = np.array([index[k] for k in keys], dtype=np.intp)
        return ctmc_of(space).lower(), population_markov_ir(model), proj

    def test_steady_state_projects_exactly(self):
        from repro.ir import solve

        exp_ir, pop_ir, proj = self._projection(pc_lan(6))
        pi_exp = solve(exp_ir, "steady").pi
        pi_pop = solve(pop_ir, "steady").pi
        projected = np.zeros(pop_ir.n_states)
        np.add.at(projected, proj, pi_exp)
        np.testing.assert_allclose(projected, pi_pop, atol=1e-8)

    def test_transient_projects_exactly(self):
        from repro.ir import solve

        exp_ir, pop_ir, proj = self._projection(pc_lan(5))
        times = np.linspace(0.0, 3.0, 7)
        d_exp = solve(exp_ir, "transient", times=times)
        d_pop = solve(pop_ir, "transient", times=times)
        projected = np.zeros_like(d_pop)
        for j, p in enumerate(proj):
            projected[:, p] += d_exp[:, j]
        np.testing.assert_allclose(projected, d_pop, atol=1e-8)

    def test_expected_populations_match_explicit_count(self):
        from repro.ir import solve

        model = pc_lan(6)
        exp_ir, pop_ir, proj = self._projection(model)
        pi_pop = solve(pop_ir, "steady").pi
        pops = pop_ir.orbits.expected_populations(pi_pop)
        # Mean number of ready PCs from the explicit chain, counted by
        # label inspection, must match the projected population measure.
        pi_exp = solve(exp_ir, "steady").pi
        space = derive(model)
        ready = np.array([
            space.state_label(i).count("PCready") for i in range(space.size)
        ])
        assert pops["PCready"] == pytest.approx(float(pi_exp @ ready), abs=1e-8)


class TestScaling:
    def test_pc_lan_100_derives_in_population_form(self):
        model = pc_lan(100)
        budget = 1_000_000
        # The population form fits with room to spare...
        space = derive_population(model, max_states=budget)
        assert space.size == 101
        # ...while the explicit space it stands for is far over budget.
        assert space.orbit_info.full_states > budget
        assert space.orbit_info.full_states == 2 ** 100

    def test_population_budget_enforced(self):
        with pytest.raises(StateSpaceLimitError):
            derive_population(pc_lan(100), max_states=50)


class TestRegistry:
    def test_population_backend_and_alias(self):
        from repro.ir import solve

        ir = solve(pc_lan(4), "derive", backend="population")
        via_alias = solve(pc_lan(4), "derive", backend="lumped")
        assert ir.n_states == via_alias.n_states == 5
        assert ir.orbits is not None

    def test_auto_selects_population_for_symmetric_models(self):
        from repro.ir import solve
        from repro.pepa.derivation import select_derive_backend

        assert select_derive_backend(pc_lan(4)) == "population"
        ir = solve(pc_lan(4), "derive", backend="auto")
        assert ir.n_states == 5

    def test_auto_keeps_explicit_for_asymmetric_large_products(self):
        from repro.pepa.derivation import select_derive_backend

        model = parse_model(
            "A = (x, 1.0).A1; A1 = (y, 1.0).A; "
            "B = (x, 2.0).B1; B1 = (y, 2.0).B; A || B"
        )
        assert select_derive_backend(model) == "explicit"

    def test_population_falls_back_to_explicit(self):
        from repro.engine.faults import FaultSpec, inject
        from repro.engine.metrics import get_registry
        from repro.ir import solve

        # A recoverable population failure (here an injected sentinel
        # violation) walks the chain population -> explicit.
        reg = get_registry()
        before = reg.counter("ir.fallback.derive.population->explicit")
        with inject(FaultSpec("sentinel_violation", backend="population")):
            ir = solve(pc_lan(8), "derive", backend="population")
        assert ir.n_states == 256
        assert ir.orbits is None
        assert (
            reg.counter("ir.fallback.derive.population->explicit")
            == before + 1
        )

    def test_population_over_budget_propagates(self):
        from repro.ir import solve

        # When the aggregated space itself blows the budget the chain
        # walks to explicit, which is even larger: the original limit
        # error must surface rather than a masked secondary failure.
        from repro.engine.metrics import get_registry

        reg = get_registry()
        exhausted = reg.counter("ir.fallback.exhausted")
        with pytest.raises(StateSpaceLimitError):
            solve(pc_lan(100), "derive", backend="population", max_states=50)
        # The derive chain declares the limit error recoverable, so it
        # was walked (and exhausted) rather than skipped.
        assert reg.counter("ir.fallback.exhausted") == exhausted + 1

    def test_repeat_solve_is_served_by_the_registry_not_derive(
        self, monkeypatch
    ):
        """The analysis is cached under its IR digest; the derived space
        is an input, hashed and pickled by nobody."""
        from repro.engine import cache, cache_override, get_cache
        from repro.ir import registry
        from repro.manifest import run_from_source

        seen = []
        real = cache.canonical_key

        def spy(namespace, *parts):
            seen.append(namespace)
            return real(namespace, *parts)

        monkeypatch.setattr(cache, "canonical_key", spy)
        monkeypatch.setattr(registry, "canonical_key", spy)
        source = PC_LAN.format(n=4)
        with cache_override(True):
            get_cache().clear()
            first = run_from_source(
                "pepa", source, "steady", derive_backend="population"
            )
            again = run_from_source(
                "pepa", source, "steady", derive_backend="population"
            )
        assert first.meta["cache"] == "miss"
        assert again.meta["cache"] == "hit"
        np.testing.assert_array_equal(first.pi, again.pi)
        assert "ir.steady" in seen
        assert not {"derive", "derive.population", "finishing_cdf"} & set(seen)


class TestTrustSentinels:
    def _population_ir(self):
        return population_markov_ir(pc_lan(4))

    def _verify(self, ir):
        from repro.ir import guards

        return guards.verify("derive", "population", pc_lan(4), ir, {})

    def test_valid_ir_passes_with_orbit_diagnostics(self):
        out = self._verify(self._population_ir())
        assert out["full_states"] == 16
        assert out["aggregation_ratio"] == pytest.approx(3.2)
        assert out["population_defect"] == 0.0

    def test_orbit_size_sum_mismatch_rejected(self):
        ir = self._population_ir()
        bad = dataclasses.replace(
            ir,
            orbits=dataclasses.replace(ir.orbits, full_states=17),
        )
        with pytest.raises(NumericalTrustError, match="orbit_count"):
            self._verify(bad)

    def test_fractional_orbit_sizes_rejected(self):
        ir = self._population_ir()
        sizes = ir.orbits.orbit_sizes.copy()
        sizes[1] += 0.5
        bad = dataclasses.replace(
            ir, orbits=dataclasses.replace(ir.orbits, orbit_sizes=sizes)
        )
        with pytest.raises(NumericalTrustError, match="orbit"):
            self._verify(bad)

    def test_population_conservation_violation_rejected(self):
        ir = self._population_ir()
        counts = ir.orbits.counts.copy()
        counts[2, 0] += 1  # one replica too many in one configuration
        bad = dataclasses.replace(
            ir, orbits=dataclasses.replace(ir.orbits, counts=counts)
        )
        with pytest.raises(NumericalTrustError, match="population_conservation"):
            self._verify(bad)

    def test_nontrivial_initial_orbit_rejected(self):
        ir = self._population_ir()
        sizes = ir.orbits.orbit_sizes.copy()
        sizes[ir.initial_index] = 4.0
        full = int(sizes.sum())
        bad = dataclasses.replace(
            ir,
            orbits=dataclasses.replace(
                ir.orbits, orbit_sizes=sizes, full_states=full
            ),
        )
        with pytest.raises(NumericalTrustError, match="orbit_initial"):
            self._verify(bad)


class TestShadowVerification:
    def test_population_shadowed_against_explicit(self):
        from repro.engine.cache import get_cache
        from repro.ir import guards, solve

        get_cache().clear()
        ir = solve(pc_lan(4), "derive", backend="population", shadow="explicit")
        assert ir.orbits is not None
        out = guards.last_diagnostics()
        assert out["shadow_backend"] == "explicit"
        assert out["shadow_max_abs"] <= 1e-10

    def test_compare_reuses_both_derivations(self):
        # Regression: the comparison derived both spaces again, so one
        # shadowed solve ran two of each derivation.  Each side's own
        # generator is still assembled once.
        from repro.engine import cache_override, get_registry
        from repro.ir import solve

        registry = get_registry()
        names = ("derive", "derive.population", "derive.csr_assembly")

        def calls():
            return [(registry.timer_stat(n) or {"calls": 0})["calls"] for n in names]

        before = calls()
        with cache_override(False):
            solve(pc_lan(4), "derive", backend="population", shadow="explicit")
        assert [b - a for a, b in zip(before, calls())] == [1, 1, 2]

    def test_partner_skips_huge_explicit_spaces(self):
        from repro.pepa.derivation import _derive_shadow_partner
        from repro.pepa.derivation import derive_population as lumped_ir

        small, huge = pc_lan(4), pc_lan(100)
        assert (
            _derive_shadow_partner("population", small, lumped_ir(small))
            == "explicit"
        )
        # 2^100 explicit states: re-deriving explicitly is not affordable.
        assert _derive_shadow_partner("population", huge, lumped_ir(huge)) is None
        # Non-population primaries are never shadowed.
        assert _derive_shadow_partner("explicit", small, None) is None

    def test_injected_mismatch_quarantined(self):
        from repro.engine import faults
        from repro.engine.cache import get_cache
        from repro.ir import solve

        get_cache().clear()
        with faults.inject(faults.FaultSpec("shadow_mismatch", backend="explicit")):
            with pytest.raises(NumericalTrustError, match="shadow_mismatch"):
                solve(pc_lan(4), "derive", backend="population", shadow="explicit")


class TestExplicitPathUnchanged:
    def test_explicit_derive_ignores_canonicalization(self):
        # The hook defaults to None: the explicit path's states and
        # transition arrays are bit-identical with population machinery
        # loaded (seeded-simulation reproducibility depends on this).
        from repro.pepa.statespace import derive_reference

        model = pc_lan(4)
        space = derive(model)
        ref = derive_reference(model)
        assert space.states == ref.states
        np.testing.assert_array_equal(space.trans_rate, ref.trans_rate)

    def test_population_labels_are_count_form(self):
        space = derive_population(pc_lan(4))
        labels = space.population_labels
        assert len(labels) == space.size
        assert any("4*PC" in lab for lab in labels)
