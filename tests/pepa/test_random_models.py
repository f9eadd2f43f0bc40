"""Whole-pipeline property tests on randomly generated PEPA models.

A hypothesis strategy builds random *well-formed* models: a few cyclic
sequential components composed with random cooperation sets.  Every
generated model must derive to a consistent state space and CTMC:

* generator rows sum to zero, off-diagonals non-negative;
* if deadlock-free, the steady state solves and normalizes;
* total probability flux of each action balances between producers and
  consumers (flow conservation of the embedded reward structure);
* derivation is deterministic (same model -> same space).

The lexer/parser must also never crash with anything but
``PepaSyntaxError`` on arbitrary text (fuzzing).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PepaError, ReproError
from repro.pepa import ctmc_of, derive, derive_reference, parse_model
from repro.pepa.parser import parse_model as parse


@st.composite
def random_model(draw, passive=False, hiding=False, aggregation=False):
    """A random deadlock-free-ish PEPA model source.

    The opt-in features widen what derivation must handle, and leave
    the draws of the default generator unchanged: ``passive`` lets a
    branch run at ``infty`` (a passive activity left unsynchronized at
    the top level is ill-formed, which derivation must report);
    ``hiding`` may hide one action of a component or of the whole
    system; ``aggregation`` may replicate a component as ``P[k]``.
    """
    n_components = draw(st.integers(1, 3))
    actions = ["act0", "act1", "act2", "act3"]
    sources = []
    component_actions: list[set[str]] = []
    for c in range(n_components):
        n_states = draw(st.integers(1, 3))
        used: set[str] = set()
        lines = []
        for s in range(n_states):
            # 1-2 branches, each to a random state of the same component.
            n_branches = draw(st.integers(1, 2))
            branches = []
            for _ in range(n_branches):
                action = draw(st.sampled_from(actions))
                rate = draw(st.floats(min_value=0.1, max_value=5.0))
                target = draw(st.integers(0, n_states - 1))
                used.add(action)
                if passive and draw(st.integers(0, 4)) == 0:
                    rate = "infty"
                else:
                    rate = repr(rate)
                branches.append(f"({action}, {rate}).C{c}S{target}")
            lines.append(f"C{c}S{s} = " + " + ".join(branches) + ";")
        sources.extend(lines)
        component_actions.append(used)
    def operand(c: int) -> str:
        term = f"C{c}S0"
        if aggregation and draw(st.booleans()):
            term += f"[{draw(st.integers(2, 3))}]"
        if hiding and draw(st.booleans()):
            term = f"({term})/{{{draw(st.sampled_from(sorted(component_actions[c])))}}}"
        return term

    # Compose left-to-right; cooperation sets drawn from actions BOTH
    # sides can perform (avoids trivially blocked actions).
    system = operand(0)
    cumulative = set(component_actions[0])
    for c in range(1, n_components):
        shared_pool = sorted(cumulative & component_actions[c])
        coop = draw(
            st.lists(st.sampled_from(shared_pool), max_size=2, unique=True)
            if shared_pool
            else st.just([])
        )
        op = "<" + ", ".join(coop) + ">" if coop else "||"
        system = f"({system}) {op} {operand(c)}"
        cumulative |= component_actions[c]
    if hiding and draw(st.booleans()):
        system = f"({system})/{{{draw(st.sampled_from(sorted(cumulative)))}}}"
    return "\n".join(sources) + "\n" + system


class TestRandomModels:
    @given(source=random_model())
    @settings(max_examples=60, deadline=None)
    def test_generator_structure(self, source):
        space = derive(parse_model(source), max_states=20_000)
        chain = ctmc_of(space)
        rows = np.asarray(chain.generator.sum(axis=1)).ravel()
        assert np.abs(rows).max() < 1e-9 * max(1.0, abs(chain.generator).max())
        coo = chain.generator.tocoo()
        off = coo.row != coo.col
        assert (coo.data[off] >= 0).all()

    @given(source=random_model())
    @settings(max_examples=40, deadline=None)
    def test_steady_state_when_ergodic(self, source):
        space = derive(parse_model(source), max_states=20_000)
        chain = ctmc_of(space)
        if space.deadlocked_states():
            return
        try:
            result = chain.steady_state()
        except ReproError:
            return  # reducible chains are legitimately rejected
        assert abs(result.pi.sum() - 1.0) < 1e-9
        assert (result.pi >= 0).all()

    @given(source=random_model())
    @settings(max_examples=30, deadline=None)
    def test_derivation_deterministic(self, source):
        a = derive(parse_model(source), max_states=20_000)
        b = derive(parse_model(source), max_states=20_000)
        assert a.states == b.states
        assert a.transitions == b.transitions

    @given(source=random_model())
    @settings(max_examples=30, deadline=None)
    def test_transient_rows_normalized(self, source):
        space = derive(parse_model(source), max_states=20_000)
        chain = ctmc_of(space)
        dist = chain.transient([0.0, 0.5, 2.0])
        np.testing.assert_allclose(dist.sum(axis=1), 1.0, atol=1e-8)
        assert (dist >= -1e-12).all()


class TestLevelSweepEqualsReference:
    """The level-synchronous sweep against the one-transition-at-a-time
    reference walk, on generated models with passive rates, hiding and
    aggregation: the same bits, or the same error."""

    @given(
        source=random_model(passive=True, hiding=True, aggregation=True),
        max_states=st.sampled_from((5_000, 7, 3)),
    )
    @settings(max_examples=80, deadline=None)
    def test_derive_matches_reference_bit_for_bit(self, source, max_states):
        model = parse_model(source)
        try:
            ref = derive_reference(model, max_states=max_states)
        except ReproError as exc:
            with pytest.raises(type(exc)) as err:
                derive(model, max_states=max_states)
            assert str(err.value) == str(exc)
            return
        fast = derive(model, max_states=max_states)
        assert fast.states == ref.states
        assert fast.action_names == ref.action_names
        for name in ("trans_source", "trans_target", "trans_rate",
                     "trans_action_code"):
            a, b = getattr(fast, name), getattr(ref, name)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


class TestParserFuzz:
    @given(text=st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text_never_crashes_unexpectedly(self, text):
        try:
            parse(text)
        except PepaError:
            pass  # the only acceptable failure mode

    @given(
        text=st.text(
            alphabet="PQab(),.+<>|/{}[]=; 0123456789infty*-",
            max_size=120,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_pepa_flavored_soup(self, text):
        try:
            parse(text)
        except PepaError:
            pass
