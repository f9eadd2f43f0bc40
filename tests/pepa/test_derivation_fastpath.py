"""Derivation fast path: memoized BFS vs naive reference, CSR assembly,
the derive registry's ``auto`` selection, and the CTMC-assembly bugfix
regressions."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import DeadlockError, StateSpaceLimitError
from repro.pepa import (
    ctmc_of,
    derive,
    derive_reference,
    parse_model,
)
from repro.pepa.models import MODEL_NAMES, get_model


def table1_machine_model():
    from repro.allocation import MAPPING_A, synthetic_workload
    from repro.allocation.machines import build_machine_model

    return build_machine_model(MAPPING_A, "M1", synthetic_workload(seed=2019))


def pc_lan(n: int):
    return parse_model(
        f"""
        lam = 0.4;
        mu  = 5.0;
        PC      = (think, lam).PCready;
        PCready = (send, infty).PC;
        Medium  = (send, mu).Medium;
        PC[{n}] <send> Medium
        """
    )


def all_property_models():
    cases = [(name, get_model(name)) for name in MODEL_NAMES]
    cases.append(("table1_machine", table1_machine_model()))
    cases.append(("pc_lan_8", pc_lan(8)))
    return cases


class TestFastPathEqualsReference:
    """The memoized fast path must be bit-identical to the naive walk."""

    @pytest.mark.parametrize(
        "name,model", all_property_models(), ids=[n for n, _ in all_property_models()]
    )
    def test_identical_derivation(self, name, model):
        fast = derive(model)
        ref = derive_reference(model)
        assert fast.states == ref.states
        assert fast.leaves == ref.leaves
        assert fast.action_names == ref.action_names
        np.testing.assert_array_equal(fast.trans_source, ref.trans_source)
        np.testing.assert_array_equal(fast.trans_target, ref.trans_target)
        np.testing.assert_array_equal(fast.trans_rate, ref.trans_rate)
        np.testing.assert_array_equal(
            fast.trans_action_code, ref.trans_action_code
        )
        assert fast.transitions == ref.transitions

    @pytest.mark.parametrize(
        "name,model", all_property_models(), ids=[n for n, _ in all_property_models()]
    )
    def test_identical_generators(self, name, model):
        Qf = ctmc_of(derive(model)).generator
        Qr = ctmc_of(derive_reference(model)).generator
        assert (Qf != Qr).nnz == 0

    def test_identical_seeded_ssa(self):
        from repro.pepa import simulate

        model = get_model("pc_lan_4")
        times = np.linspace(0.0, 5.0, 51)
        path_fast = simulate(ctmc_of(derive(model)), times, seed=42)
        path_ref = simulate(ctmc_of(derive_reference(model)), times, seed=42)
        np.testing.assert_array_equal(path_fast.states, path_ref.states)
        np.testing.assert_array_equal(path_fast.jump_times, path_ref.jump_times)
        assert path_fast.jump_actions == path_ref.jump_actions


class TestAutoOrdering:
    """``auto`` returns exactly what the backend it selects returns: same
    state order, transition table and labels (or orbits), so choosing
    ``auto`` never relabels states."""

    @pytest.mark.parametrize(
        "name", list(MODEL_NAMES) + ["table1_machine"]
    )
    def test_matches_selected(self, name):
        from repro.ir import solve
        from repro.pepa.derivation import select_derive_backend

        model = (
            table1_machine_model() if name == "table1_machine"
            else get_model(name)
        )
        auto = solve(model, "derive", backend="auto")
        chosen = solve(model, "derive", backend=select_derive_backend(model))
        for a, b in (
            (auto.generator.indptr, chosen.generator.indptr),
            (auto.generator.indices, chosen.generator.indices),
            (auto.generator.data, chosen.generator.data),
        ):
            np.testing.assert_array_equal(a, b)
        assert auto.labels == chosen.labels
        if chosen.orbits is not None:
            for field in ("orbit_sizes", "counts", "column_group",
                          "group_totals"):
                np.testing.assert_array_equal(
                    getattr(auto.orbits, field), getattr(chosen.orbits, field)
                )
            assert auto.orbits.column_labels == chosen.orbits.column_labels
        else:
            assert auto.orbits is None
            np.testing.assert_array_equal(
                auto.trans_source, chosen.trans_source
            )


class TestDeriveRegistry:
    def test_backends_registered(self):
        from repro.ir import available_backends, default_backend

        assert set(available_backends()["derive"]) == {
            "auto", "explicit", "population",
        }
        assert default_backend("derive") == "explicit"

    def test_fallback_chain(self):
        from repro.ir.registry import fallback_chain

        assert fallback_chain("derive") == ("population", "explicit")

    def test_solve_derive_explicit_matches_lowering(self):
        from repro.ir import solve

        model = get_model("mm2_queue")
        ir = solve(model, "derive")
        direct = ctmc_of(derive(model)).lower()
        assert ir.n_states == direct.n_states
        assert (ir.generator != direct.generator).nnz == 0
        np.testing.assert_array_equal(ir.trans_source, direct.trans_source)

    def test_auto_selects_population_for_replicated_models(self):
        from repro.pepa.derivation import select_derive_backend

        # Replicated symmetry alone decides: the quotient space is never
        # larger than the explicit one, and the fallback chain handles
        # genuine overruns.
        assert select_derive_backend(get_model("pc_lan_4")) == "population"
        assert select_derive_backend(pc_lan(8)) == "population"

    def test_auto_selects_explicit_without_symmetry(self):
        from repro.pepa.derivation import select_derive_backend

        model = parse_model(
            "A = (x, 1.0).A1; A1 = (y, 1.0).A; "
            "B = (x, 2.0).B1; B1 = (y, 2.0).B; A <x> B"
        )
        assert select_derive_backend(model) == "explicit"

    def test_removed_backends_are_refused(self):
        from repro.errors import BackendError
        from repro.ir import solve

        model = get_model("mm2_queue")
        for name in ("kronecker", "compositional", "naive", "reference"):
            with pytest.raises(BackendError, match="no 'derive' backend"):
                solve(model, "derive", backend=name)


class TestLimitError:
    def test_no_partial_space_escapes(self):
        model = pc_lan(8)  # 256 states
        with pytest.raises(StateSpaceLimitError, match="stopped after"):
            derive(model, max_states=10)
        # A second identical call must recompute and fail again — the
        # failed derivation must not have populated the result cache.
        with pytest.raises(StateSpaceLimitError, match="stopped after"):
            derive(model, max_states=10)
        # And the full derivation still succeeds afterwards.
        assert derive(model).size == 256

    def test_reference_walk_same_limit(self):
        with pytest.raises(StateSpaceLimitError, match="stopped after"):
            derive_reference(pc_lan(8), max_states=10)

    def test_message_reports_progress(self):
        with pytest.raises(StateSpaceLimitError, match=r"\d+ states and \d+ transitions"):
            derive(pc_lan(8), max_states=10)


class TestParallelEdgeMultiplicity:
    """Two activities of the same action between the same states must sum
    in the generator (race-condition semantics) yet stay separate in the
    labelled transition table."""

    SOURCE = "P = (a, 1.0).Q + (a, 2.0).Q; Q = (b, 1.0).P; P"

    def test_generator_sums_parallel_edges(self):
        chain = ctmc_of(derive(parse_model(self.SOURCE)))
        Q = chain.generator.toarray()
        assert Q[0, 1] == pytest.approx(3.0)
        assert Q[0, 0] == pytest.approx(-3.0)

    def test_transition_table_keeps_both(self):
        space = derive(parse_model(self.SOURCE))
        a_rates = sorted(
            tr.rate for tr in space.transitions if tr.action == "a"
        )
        assert a_rates == [1.0, 2.0]

    def test_action_rate_matrix_sums(self):
        ir = ctmc_of(derive(parse_model(self.SOURCE))).lower()
        R = ir.action_rate_matrix("a").toarray()
        assert R[0, 1] == pytest.approx(3.0)


class TestSelfLoopConsistency:
    """Holding times and jump probabilities must be self-loop-invariant."""

    LOOPED = "P = (go, 1.0).Dead; Dead = (spin, 1.0).Dead; P"

    def test_exit_rate_excludes_self_loops(self):
        space = derive(parse_model(self.LOOPED))
        assert space.exit_rate(1) == 0.0
        assert space.exit_rate(0) == 1.0

    def test_self_loop_only_state_is_deadlocked(self):
        space = derive(parse_model(self.LOOPED))
        assert space.deadlocked_states() == [1]

    def test_steady_state_raises_deadlock(self):
        chain = ctmc_of(derive(parse_model(self.LOOPED)))
        with pytest.raises(DeadlockError):
            chain.steady_state()

    def test_generator_diagonal_ignores_self_loops(self):
        # A self-loop next to a real exit: the diagonal must equal the
        # negated rate of proper transitions only.
        model = parse_model(
            "P = (stay, 5.0).P + (go, 2.0).Q; Q = (back, 1.0).P; P"
        )
        Q = ctmc_of(derive(model)).generator.toarray()
        assert Q[0, 0] == pytest.approx(-2.0)
        assert Q[0, 1] == pytest.approx(2.0)

    def test_ssa_tables_exclude_self_loops(self):
        model = parse_model(
            "P = (stay, 5.0).P + (go, 2.0).Q; Q = (back, 1.0).P; P"
        )
        ir = ctmc_of(derive(model)).lower()
        cum, targets, actions = ir.ssa_tables()[0]
        assert actions == ("go",)
        assert cum[-1] == pytest.approx(2.0)
        assert list(targets) == [1]


class TestHashSeedDeterminism:
    """State ordering must not depend on PYTHONHASHSEED (dict iteration
    over simultaneously enabled shared actions)."""

    SOURCE = (
        "L = (a, 1.0).L1 + (b, 1.0).L2; L1 = (r, 2.0).L; L2 = (s, 2.0).L; "
        "R = (a, 2.0).R1 + (b, 2.0).R2; R1 = (t, 1.0).R; R2 = (u, 1.0).R; "
        "L <a, b> R"
    )

    def _derive_in_subprocess(self, hashseed: str) -> str:
        code = (
            "from repro.pepa import derive, parse_model\n"
            f"space = derive(parse_model({self.SOURCE!r}))\n"
            "print([space.state_label(i) for i in range(space.size)])\n"
            "print([(t.source, t.target, t.action, t.rate)"
            " for t in space.transitions])\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_ordering_invariant_under_hash_seed(self):
        outputs = {self._derive_in_subprocess(seed) for seed in ("0", "1", "4242")}
        assert len(outputs) == 1
