"""The batched SSA ensemble kernels every default ``ssa`` ensemble runs
on: bit-identity against the scalar oracle, compaction, the in-backend
scalar fallback, and the trust-layer checks."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro import engine
from repro.engine import faults, get_registry
from repro.engine.executor import spawn_seeds
from repro.errors import (
    BackendError,
    BatchedKernelError,
    NumericalTrustError,
    SimulationLimitError,
)
from repro.ir import MarkovIR, ReactionIR, solve
from repro.ir.backends import ssa_batched
from repro.ir.backends.ssa import (
    MARKOV_EVENT_BUDGET,
    REACTION_EVENT_BUDGET,
    EnsembleMoments,
    ensemble_moments,
    markov_path,
    occupancy_run,
    reaction_run,
    reaction_trajectory,
)
from repro.ir.backends.ssa_batched import markov_occupancy_chunk, reaction_chunk
from repro.ir import guards

from tests.ir.test_ssa_core import (
    GRID,
    immigration_death_ir,
    ring_ir_with_table,
)


def absorbing_ir() -> MarkovIR:
    """0 -> 1 -> 2, state 2 absorbing: exercises path compaction."""
    Q = sp.csr_matrix(
        np.array([[-2.0, 2.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]])
    )
    return MarkovIR(
        generator=Q,
        trans_source=np.array([0, 1]),
        trans_target=np.array([1, 2]),
        trans_rate=np.array([2.0, 1.0]),
        trans_action=("step", "stop"),
    )


class Drain:
    """Propensity x: vanishes at zero amounts, so paths absorb."""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.array([x[0]])


def draining_ir(sampler: str = "choice") -> ReactionIR:
    return ReactionIR(
        species=("X",),
        initial=np.array([3.0]),
        stoichiometry=np.array([[-1.0]]),
        reaction_names=("drain",),
        propensities=Drain(),
        sampler=sampler,
        token=("drain", sampler),
    )


class LyingBatch:
    """A batch evaluator that disagrees with the scalar law."""

    def __call__(self, states: np.ndarray) -> np.ndarray:
        return np.full((states.shape[0], 2), 1.0)


def lying_ir() -> ReactionIR:
    base = immigration_death_ir()
    return ReactionIR(
        species=base.species,
        initial=base.initial,
        stoichiometry=base.stoichiometry,
        reaction_names=base.reaction_names,
        propensities=base.propensities,
        batch_propensities=LyingBatch(),
        sampler="choice",
        token=None,
    )


def assert_identical(a: EnsembleMoments, b: EnsembleMoments) -> None:
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.var, b.var)
    assert a.events == b.events
    assert a.chunks == b.chunks


def oracle(ir, grid, n_runs, seed):
    """The scalar steppers through the shared ensemble driver."""
    if isinstance(ir, MarkovIR):
        return ensemble_moments(occupancy_run, (ir, None), grid, n_runs, seed)
    return ensemble_moments(reaction_run, ir, grid, n_runs, seed)


def default(ir, grid, n_runs, seed):
    return solve(ir, "ssa", mode="ensemble", times=grid, n_runs=n_runs,
                 seed=seed)


def ensembles(ir, grid, n_runs=60, seed=17):
    """(scalar oracle, default path) for one seeded ensemble."""
    return oracle(ir, grid, n_runs, seed), default(ir, grid, n_runs, seed)


class TestBitIdentity:
    def test_markov_occupancy(self):
        scalar, batched = ensembles(ring_ir_with_table(), GRID)
        assert_identical(scalar, batched)
        assert scalar.meta["kernel"] == "scalar"
        assert batched.meta["kernel"] == "batched"

    @pytest.mark.parametrize("sampler", ["choice", "scan"])
    def test_reaction_both_samplers(self, sampler):
        scalar, batched = ensembles(immigration_death_ir(sampler), GRID)
        assert_identical(scalar, batched)

    def test_absorbing_markov_compaction(self):
        # Every path absorbs well before the horizon; the batched kernel
        # must retire rows without disturbing the survivors' streams.
        scalar, batched = ensembles(
            absorbing_ir(), np.linspace(0.0, 30.0, 16)
        )
        assert_identical(scalar, batched)

    @pytest.mark.parametrize("sampler", ["choice", "scan"])
    def test_absorbing_reaction_compaction(self, sampler):
        scalar, batched = ensembles(
            draining_ir(sampler), np.linspace(0.0, 40.0, 11)
        )
        assert_identical(scalar, batched)

    def test_per_trajectory_oracle_markov(self):
        # Kernel-level: every padded-table path equals the scalar stepper's.
        ir = ring_ir_with_table()
        seeds = spawn_seeds(23, 9)
        runs, events = markov_occupancy_chunk(
            (ir, None), GRID, seeds, MARKOV_EVENT_BUDGET
        )
        for occ, n_events, s in zip(runs, events, seeds):
            ref_occ, ref_events = occupancy_run(
                (ir, None), GRID, np.random.default_rng(s)
            )
            np.testing.assert_array_equal(occ, ref_occ)
            assert n_events == ref_events

    @pytest.mark.parametrize("sampler", ["choice", "scan"])
    def test_per_trajectory_oracle_reaction(self, sampler):
        ir = immigration_death_ir(sampler)
        seeds = spawn_seeds(29, 9)
        runs, events = reaction_chunk(ir, GRID, seeds, REACTION_EVENT_BUDGET)
        for counts, n_events, s in zip(runs, events, seeds):
            ref_counts, ref_events = reaction_run(
                ir, GRID, np.random.default_rng(s)
            )
            np.testing.assert_array_equal(counts, ref_counts)
            assert n_events == ref_events

    def test_parallel_equals_sequential(self):
        # 260 runs: three batched tasks, the last one short.
        ir = immigration_death_ir()
        sequential = default(ir, GRID, 260, 31)
        with engine.parallel(workers=2):
            parallel = default(ir, GRID, 260, 31)
        assert_identical(sequential, parallel)
        assert_identical(oracle(ir, GRID, 260, 31), parallel)


class TestFrontends:
    def test_pepa_occupancy_ensemble(self):
        from repro.pepa import ctmc_of, derive, parse_model

        src = """
        P1 = (a, 1.0).P2;
        P2 = (b, 2.0).P1;
        Q1 = (a, 1.0).Q2;
        Q2 = (c, 0.5).Q1;
        P1 <a> Q1
        """
        ir = ctmc_of(derive(parse_model(src))).lower()
        scalar, batched = ensembles(ir, np.linspace(0.0, 5.0, 21))
        assert_identical(scalar, batched)

    def test_biopepa_enzyme_ensemble(self):
        from repro.biopepa import parse_biopepa
        from repro.biopepa.examples import enzyme_kinetics_source
        from repro.biopepa.lower import lower_reactions

        ir = lower_reactions(parse_biopepa(enzyme_kinetics_source()))
        assert ir.batch_propensities is not None
        scalar, batched = ensembles(ir, np.linspace(0.0, 5.0, 21))
        assert_identical(scalar, batched)

    def test_biopepa_mm_and_expression_laws(self):
        from repro.biopepa import parse_biopepa
        from repro.biopepa.lower import lower_reactions

        src = """
        vM = 1.2; kM = 8.0; k1 = 0.05; kI = 4.0;
        kineticLawOf convert : fMM(vM, kM);
        kineticLawOf feed    : fMA(k1);
        kineticLawOf inhib   : vM * E * S / (kM * (1 + I / kI) + S);
        S = (convert, 1) << S + (inhib, 1) << S + (feed, 1) >> S;
        E = (convert, 1) (+) E + (inhib, 1) (+) E;
        I = (inhib, 1) (.) I;
        P = (convert, 1) >> P + (inhib, 1) >> P;
        S[40] <*> E[10] <*> I[12] <*> P[0]
        """
        ir = lower_reactions(parse_biopepa(src))
        assert ir.batch_propensities is not None
        # The compiled laws agree with the scalar evaluation everywhere,
        # including zero-substrate rows (the fMM/ZeroDivision guards).
        rng = np.random.default_rng(5)
        states = rng.integers(0, 50, size=(64, 4)).astype(float)
        states[:5, 0] = 0.0
        reference = np.stack([ir.propensities(x) for x in states])
        np.testing.assert_array_equal(
            ir.batch_propensities(states), reference
        )
        scalar, batched = ensembles(ir, np.linspace(0.0, 4.0, 17))
        assert_identical(scalar, batched)

    def test_gpepa_client_server_ensemble(self):
        from repro.gpepa.examples import client_server_scalability
        from repro.gpepa.lower import lower_reactions

        ir = lower_reactions(client_server_scalability(10, 2))
        assert ir.batch_propensities is not None
        scalar, batched = ensembles(ir, np.linspace(0.0, 2.0, 11))
        assert_identical(scalar, batched)


def _corpus():
    """Every bundled PEPA model and the Bio-PEPA / GPEPA examples."""
    from repro.pepa.models import MODEL_NAMES

    cases = [("pepa", name) for name in MODEL_NAMES]
    cases += [("biopepa", "enzyme_kinetics_model"),
              ("biopepa", "enzyme_with_inhibitor_model"),
              ("gpepa", "client_server_power"),
              ("gpepa", "client_server_scalability")]
    return cases


def _lower(formalism, name):
    if formalism == "pepa":
        from repro.pepa import ctmc_of, derive
        from repro.pepa.models import get_model

        return ctmc_of(derive(get_model(name))).lower()
    if formalism == "biopepa":
        from repro.biopepa import examples
        from repro.biopepa.lower import lower_reactions

        return lower_reactions(getattr(examples, name)())
    from repro.gpepa import examples
    from repro.gpepa.lower import lower_reactions

    return lower_reactions(getattr(examples, name)())


@pytest.mark.parametrize("formalism, name", _corpus())
def test_default_digest_equals_oracle_on_the_corpus(formalism, name):
    from repro.engine.run_manifest import result_digest

    ir = _lower(formalism, name)
    grid = np.linspace(0.0, 2.0, 9)
    scalar, served = ensembles(ir, grid, n_runs=30, seed=2019)
    assert served.meta["kernel"] == "batched"
    assert result_digest(served) == result_digest(scalar)


class TestFallbackChain:
    """The batched -> scalar fallback, taken inside the ``direct``
    backend: there is no registry chain and no backend to name."""

    def test_trajectory_mode_falls_back_to_scalar(self):
        # The kernels serve ensembles only; trajectories run the scalar
        # steppers with the exact same stream.
        ir = immigration_death_ir()
        path = solve(ir, "ssa", times=GRID, seed=42)
        ref = reaction_trajectory(ir, GRID, np.random.default_rng(42))
        np.testing.assert_array_equal(path.counts, ref.counts)
        assert path.n_events == ref.n_events
        ring = ring_ir_with_table()
        jumps = solve(ring, "ssa", times=GRID, seed=42)
        ref = markov_path(ring, GRID, np.random.default_rng(42))
        np.testing.assert_array_equal(jumps.states, ref.states)

    def test_self_check_rejects_lying_evaluator(self):
        with pytest.raises(BatchedKernelError, match="disagrees"):
            ensemble_moments(reaction_chunk, lying_ir(), GRID, 10, seed=3,
                             max_events=REACTION_EVENT_BUDGET)

    def test_lying_evaluator_degrades_to_oracle(self):
        # The self-check failure never reaches the caller: the backend
        # re-runs the ensemble on the scalar stepper, whose numbers are
        # the scalar law's exactly.
        reg = get_registry()
        before = reg.counter("ir.ssa.scalar_fallback")
        scalar = oracle(immigration_death_ir(), GRID, 30, 13)
        degraded = default(lying_ir(), GRID, 30, 13)
        np.testing.assert_array_equal(degraded.mean, scalar.mean)
        np.testing.assert_array_equal(degraded.var, scalar.var)
        assert degraded.meta["kernel"] == "scalar"
        assert "fallback_from" not in degraded.meta
        assert reg.counter("ir.ssa.scalar_fallback") == before + 1

    def test_table_limit_degrades_to_oracle(self, monkeypatch):
        monkeypatch.setattr(ssa_batched, "_TABLE_ENTRY_LIMIT", 0)
        scalar, served = ensembles(ring_ir_with_table(), GRID, n_runs=30)
        assert_identical(scalar, served)
        assert served.meta["kernel"] == "scalar"
        assert served.meta["manifest"].backend["kernel"] == "scalar"

    @pytest.mark.parametrize("kind", ["reaction", "markov"])
    def test_default_selects_batched_for_ensembles(self, kind):
        ir = immigration_death_ir() if kind == "reaction" else ring_ir_with_table()
        served = default(ir, GRID, 30, 19)
        assert served.meta["kernel"] == "batched"
        manifest = served.meta["manifest"]
        assert manifest.backend["used"] == "direct"
        assert manifest.backend["kernel"] == "batched"
        assert "kernel" not in manifest.chunks

    def test_next_reaction_runs_the_scalar_kernel(self):
        served = solve(immigration_death_ir(), "ssa", backend="next-reaction",
                       mode="ensemble", times=GRID, n_runs=30, seed=19)
        assert served.meta["kernel"] == "scalar"

    @pytest.mark.parametrize("name", ["batched", "ssa.batched", "auto"])
    def test_removed_backends_rejected(self, name):
        with pytest.raises(BackendError) as info:
            solve(immigration_death_ir(), "ssa", backend=name,
                  mode="ensemble", times=GRID, n_runs=5, seed=1)
        assert str(info.value) == (
            f"no 'ssa' backend named {name!r}; available: "
            "['direct', 'next-reaction']"
        )

    def test_chaos_sentinel_violation_raises(self):
        # A quarantined default ensemble is not re-run on the scalar
        # stepper: both kernels give the same bits, so a re-run could
        # only hide a bit-identity defect.  The violation surfaces.
        ir = immigration_death_ir()
        with faults.inject(
            faults.FaultSpec("sentinel_violation", backend="direct")
        ) as plan:
            with pytest.raises(NumericalTrustError):
                default(ir, GRID, 30, 37)
            assert plan.fired("sentinel_violation") == 1


class TestBudgetAndGuards:
    def test_batched_ensemble_honors_budget(self):
        ir = immigration_death_ir()
        with pytest.raises(SimulationLimitError, match="exceeded 3 events"):
            solve(ir, "ssa", mode="ensemble", times=np.linspace(0.0, 100.0, 3),
                  n_runs=8, seed=0, max_events=3)

    def test_chunk_structure_sentinel(self):
        # A kernel that merged runs into the wrong number of chunks
        # would break seeded replication; the trust layer rejects it.
        ir = immigration_death_ir()
        good = default(ir, GRID, 30, 5)
        bad = EnsembleMoments(
            times=good.times, mean=good.mean, var=good.var,
            n_runs=good.n_runs, events=good.events,
            chunks=good.chunks + 1, meta={},
        )
        with pytest.raises(NumericalTrustError, match="chunk"):
            guards.verify("ssa", "direct", ir, bad, {})
