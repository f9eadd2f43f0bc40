"""Derivation and activity graphs of PEPA models.

The PEPA workbench's "activity diagram" (paper Fig. 2) is the derivation
graph of a component: nodes are states, edges are activities labelled
``action, rate``.  We export:

* :func:`derivation_graph` — the full global derivation graph as a
  :class:`networkx.MultiDiGraph` (parallel activities preserved);
* :func:`activity_graph` — one leaf component's own activities
  between its local derivatives, at the rates its definition declares,
  which is what the Fig. 2 diagram shows for machine ``M3``;
* :func:`to_dot` — Graphviz DOT text for either graph, so diagrams can
  be rendered outside this library.
"""

from __future__ import annotations

import math

import networkx as nx

from repro.pepa.semantics import TAU, SequentialSemantics
from repro.pepa.statespace import StateSpace

__all__ = ["derivation_graph", "activity_graph", "to_dot"]


def derivation_graph(space: StateSpace) -> nx.MultiDiGraph:
    """Full derivation graph: one node per global state.

    Node attributes: ``label`` (readable state label), ``initial``.
    Edge attributes: ``action``, ``rate``, ``label``.
    """
    g = nx.MultiDiGraph(name=f"derivation of {space.model.source_name}")
    for i in range(space.size):
        g.add_node(i, label=space.state_label(i), initial=(i == space.initial_state))
    for tr in space.transitions:
        g.add_edge(
            tr.source,
            tr.target,
            action=tr.action,
            rate=tr.rate,
            label=f"({tr.action}, {tr.rate:g})",
        )
    return g


def activity_graph(space: StateSpace, leaf: int | str) -> nx.MultiDiGraph:
    """Activity diagram of one component: nodes are the leaf's reachable
    local derivatives; an edge ``u -> v`` labelled ``(a, r)`` is a local
    transition of the leaf's sequential definition, at the rate ``r``
    that definition declares, drawn when some global transition enacts
    it (moves the leaf from ``u`` to ``v`` by ``a``, or by ``tau`` where
    ``a`` is hidden).  The rate a cooperation enacts it at — a partner's
    bounded capacity, say — belongs to the partner, not to this diagram.
    Local self-loops are omitted.  Passive activities carry rate
    ``inf`` and an ``infty`` label.
    """
    k = space.leaf_index(leaf) if isinstance(leaf, str) else leaf
    g = nx.MultiDiGraph(name=f"activity diagram of {space.leaves[k].name}")
    terms = space.local_terms[k]
    index = {term: j for j, term in enumerate(terms)}
    enacted = {
        (space.states[tr.source][k], space.states[tr.target][k], tr.action)
        for tr in space.transitions
    }
    semantics = SequentialSemantics(space.model)
    # Dedup on the full activity (action AND rate): a component may move
    # u -> v via the same action at different rates (parallel edges from
    # distinct prefixes), and the diagram must show each of them.
    seen: set[tuple] = set()
    for u in sorted({state[k] for state in space.states}):
        g.add_node(u, label=space.local_label(k, u))
        for tr in semantics.transitions(terms[u]):
            v = index.get(tr.target)
            key = (u, v, tr.action, tr.rate)
            if v is None or v == u or key in seen:
                continue
            if (u, v, tr.action) not in enacted and (u, v, TAU) not in enacted:
                continue
            seen.add(key)
            if tr.rate.is_passive:
                w = tr.rate.weight
                rate, shown = math.inf, "infty" if w == 1.0 else f"{w:g}*infty"
            else:
                rate = tr.rate.value
                shown = f"{rate:g}"
            g.add_edge(u, v, action=tr.action, rate=rate,
                       label=f"({tr.action}, {shown})")
    return g


def _quote(s: str) -> str:
    return '"' + s.replace('"', r"\"") + '"'


def to_dot(graph: nx.MultiDiGraph) -> str:
    """Render a derivation/activity graph as Graphviz DOT text.

    Deterministic output (sorted nodes and edges) so that native and
    containerized runs can be compared byte-for-byte.
    """
    lines = [f"digraph {_quote(graph.name or 'pepa')} {{", "  rankdir=LR;"]
    for node in sorted(graph.nodes):
        attrs = graph.nodes[node]
        label = attrs.get("label", str(node))
        shape = "doublecircle" if attrs.get("initial") else "circle"
        lines.append(f"  {node} [label={_quote(label)}, shape={shape}];")
    edges = sorted(
        graph.edges(keys=True, data=True), key=lambda e: (e[0], e[1], e[3].get("label", ""))
    )
    for u, v, _key, data in edges:
        label = data.get("label", "")
        lines.append(f"  {u} -> {v} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
