"""Derivation and activity graphs; DOT export determinism."""

import networkx as nx
import pytest

from repro.pepa import (
    activity_graph,
    ctmc_of,
    derivation_graph,
    derive,
    parse_model,
    to_dot,
)


@pytest.fixture()
def space():
    return derive(
        parse_model(
            """
            P = (a, 1.0).P1; P1 = (b, 2.0).P;
            Q = (a, infty).Q1; Q1 = (c, 0.5).Q;
            P <a> Q
            """
        )
    )


class TestDerivationGraph:
    def test_node_per_state(self, space):
        g = derivation_graph(space)
        assert g.number_of_nodes() == space.size

    def test_edge_per_transition(self, space):
        g = derivation_graph(space)
        assert g.number_of_edges() == len(space.transitions)

    def test_initial_flagged(self, space):
        g = derivation_graph(space)
        assert g.nodes[0]["initial"] is True
        assert sum(1 for n in g.nodes if g.nodes[n]["initial"]) == 1

    def test_edge_labels(self, space):
        g = derivation_graph(space)
        labels = {d["label"] for _u, _v, d in g.edges(data=True)}
        assert "(a, 1)" in labels

    def test_parallel_edges_preserved(self):
        space = derive(parse_model("P = (a, 1.0).Q + (b, 2.0).Q; Q = (c, 1.0).P; P"))
        g = derivation_graph(space)
        assert g.number_of_edges(0, 1) == 2

    def test_is_multidigraph(self, space):
        assert isinstance(derivation_graph(space), nx.MultiDiGraph)


class TestActivityGraph:
    def test_projection_nodes_are_local_derivatives(self, space):
        g = activity_graph(space, "P")
        labels = {g.nodes[n]["label"] for n in g.nodes}
        assert labels == {"P", "P1"}

    def test_self_transitions_of_other_components_excluded(self, space):
        g = activity_graph(space, "P")
        # Only a and b move P.
        actions = {d["action"] for _u, _v, d in g.edges(data=True)}
        assert actions == {"a", "b"}

    def test_by_index(self, space):
        g = activity_graph(space, 0)
        assert g.number_of_nodes() == 2

    def test_unknown_leaf(self, space):
        with pytest.raises(KeyError):
            activity_graph(space, "Nope")

    def test_dedup_of_repeated_activities(self):
        # The same local activity observed from many global states appears once.
        space = derive(parse_model("P = (a, 1.0).P1; P1 = (b, 1.0).P; P || P"))
        g = activity_graph(space, "P")
        assert g.number_of_edges() == 2

    def test_parallel_activities_kept_separate(self):
        # Two distinct activities of the same action between the same
        # derivatives (different rates) are genuinely parallel edges —
        # deduplication must not merge them.
        space = derive(
            parse_model("P = (a, 1.0).P1 + (a, 2.0).P1; P1 = (b, 1.0).P; P")
        )
        g = activity_graph(space, "P")
        a_edges = [
            (u, v, d) for u, v, d in g.edges(data=True) if d["action"] == "a"
        ]
        assert len(a_edges) == 2
        assert {d["rate"] for _u, _v, d in a_edges} == {1.0, 2.0}

    def test_cooperation_rate_is_not_the_components(self):
        # P's a is enacted at min(1.0, 3.0) and at min(1.0, 0.5) while a
        # capacity partner switches modes; P's own activity is (a, 1.0).
        space = derive(
            parse_model(
                """
                P = (a, 1.0).P1; P1 = (b, 2.0).P;
                Fast = (a, 3.0).Fast + (slow, 1.0).Slow;
                Slow = (a, 0.5).Slow + (fast, 1.0).Fast;
                P <a> Fast
                """
            )
        )
        g = activity_graph(space, "P")
        assert sorted(d["label"] for _u, _v, d in g.edges(data=True)) == [
            "(a, 1)", "(b, 2)",
        ]

    def test_passive_and_hidden_activities_use_local_names(self):
        space = derive(
            parse_model(
                """
                P = (a, 1.0).P1; P1 = (b, 2.0).P;
                Q = (a, infty).Q1; Q1 = (c, 0.5).Q;
                (P <a> Q) / {a}
                """
            )
        )
        g = activity_graph(space, "Q")
        edges = {d["label"]: d["rate"] for _u, _v, d in g.edges(data=True)}
        assert edges == {"(a, infty)": float("inf"), "(c, 0.5)": 0.5}

    def test_activities_no_global_transition_enacts_are_omitted(self):
        # Q never offers c, so P's (c, 4.0) branch is blocked.
        space = derive(
            parse_model(
                """
                P = (a, 1.0).P1 + (c, 4.0).P1; P1 = (b, 2.0).P;
                Q = (a, 1.0).Q;
                P <a, c> Q
                """
            )
        )
        g = activity_graph(space, "P")
        assert {d["action"] for _u, _v, d in g.edges(data=True)} == {"a", "b"}


class TestDot:
    def test_deterministic_output(self, space):
        g = derivation_graph(space)
        assert to_dot(g) == to_dot(derivation_graph(space))

    def test_structure(self, space):
        dot = to_dot(derivation_graph(space))
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert "doublecircle" in dot  # initial state highlighted
        assert "->" in dot

    def test_quoting(self):
        space = derive(parse_model("P = (a, 1.0).(b, 1.0).P; P"))
        dot = to_dot(derivation_graph(space))
        # Anonymous derivative labels contain parentheses; must be quoted.
        assert '"((b, 1).P)"' in dot
