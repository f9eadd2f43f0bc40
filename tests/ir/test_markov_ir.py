"""MarkovIR construction, validation, and derived tables."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import IRError
from repro.ir import MarkovIR


def _generator(rows) -> sp.csr_matrix:
    return sp.csr_matrix(np.asarray(rows, dtype=np.float64))


def two_state() -> MarkovIR:
    return MarkovIR(generator=_generator([[-1.0, 1.0], [2.0, -2.0]]))


def labelled_three_state() -> MarkovIR:
    """A 3-state chain with a full labelled transition table, including
    one self-loop (state 1 --b--> state 1) and parallel actions."""
    Q = _generator([[-1.0, 1.0, 0.0], [0.5, -0.5, 0.0], [0.0, 2.0, -2.0]])
    return MarkovIR(
        generator=Q,
        initial_index=0,
        labels=("A", "B", "C"),
        trans_source=np.array([0, 1, 1, 2]),
        trans_target=np.array([1, 0, 1, 1]),
        trans_rate=np.array([1.0, 0.5, 3.0, 2.0]),
        trans_action=("go", "back", "spin", "back"),
    )


class TestValidation:
    def test_non_square_generator(self):
        with pytest.raises(IRError, match="square"):
            MarkovIR(generator=sp.csr_matrix(np.zeros((2, 3))))

    def test_initial_out_of_range(self):
        with pytest.raises(IRError, match="out of range"):
            MarkovIR(generator=_generator([[-1.0, 1.0], [1.0, -1.0]]),
                     initial_index=2)
        with pytest.raises(IRError, match="out of range"):
            MarkovIR(generator=_generator([[-1.0, 1.0], [1.0, -1.0]]),
                     initial_index=-1)

    def test_label_count_mismatch(self):
        with pytest.raises(IRError, match="labels"):
            MarkovIR(generator=_generator([[-1.0, 1.0], [1.0, -1.0]]),
                     labels=("only-one",))

    def test_partial_transition_table(self):
        with pytest.raises(IRError, match="completely or not at all"):
            MarkovIR(
                generator=_generator([[-1.0, 1.0], [1.0, -1.0]]),
                trans_source=np.array([0]),
                trans_target=np.array([1]),
            )


class TestDerived:
    def test_basic_properties(self):
        ir = two_state()
        assert ir.n_states == 2
        assert not ir.has_transitions
        np.testing.assert_array_equal(ir.initial_distribution(), [1.0, 0.0])

    def test_action_rate_matrix(self):
        ir = labelled_three_state()
        R = ir.action_rate_matrix("back")
        assert R.shape == (3, 3)
        assert R[1, 0] == 0.5
        assert R[2, 1] == 2.0
        assert R.sum() == 2.5
        # Self-loops stay visible to reward queries.
        assert ir.action_rate_matrix("spin")[1, 1] == 3.0

    def test_action_rate_matrix_is_memoized(self):
        ir = labelled_three_state()
        assert ir.action_rate_matrix("go") is ir.action_rate_matrix("go")

    def test_action_rate_matrix_needs_table(self):
        with pytest.raises(IRError, match="no labelled transition table"):
            two_state().action_rate_matrix("go")

    def test_ssa_tables_exclude_self_loops(self):
        ir = labelled_three_state()
        tables = ir.ssa_tables()
        assert len(tables) == 3
        cum, targets, actions = tables[1]
        # The self-loop (1 --spin--> 1) is dropped; only 1 --back--> 0
        # survives, in table order.
        np.testing.assert_array_equal(targets, [0])
        np.testing.assert_allclose(cum, [0.5])
        assert actions == ("back",)

    def test_ssa_tables_per_source_order_and_memo(self):
        ir = labelled_three_state()
        cum, targets, actions = ir.ssa_tables()[0]
        np.testing.assert_allclose(cum, [1.0])
        assert actions == ("go",)
        assert ir.ssa_tables() is ir.ssa_tables()

    def test_ssa_tables_need_table(self):
        with pytest.raises(IRError, match="no labelled transition table"):
            two_state().ssa_tables()
