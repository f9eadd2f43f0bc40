"""Stochastic probes: passage times between observed actions.

PEPA's passage-time tooling (ipc/Hydra; the stochastic-probe line of
work the paper cites via Clark & Gilmore) measures the time between two
activities of a running system by attaching an *observer* component
that cooperates passively on the actions of interest:

    ProbeStopped = (start, infty).ProbeRunning + (stop, infty).ProbeStopped;
    ProbeRunning = (stop, infty).ProbeStopped + (start, infty).ProbeRunning;

Because every observed action is always enabled passively by the probe,
attaching it does not perturb the system's behaviour (the cooperation
rate stays the system's own rate — property-tested).  The steady-state
passage time from a ``start`` completion to the next ``stop`` completion
is then a first-passage question on the probed chain:

* source distribution — where the system lands at a ``start`` instant,
  weighted by the steady-state probability flux of ``start``;
* target set — every state in which the probe has returned to
  ``Stopped`` (only a ``stop`` completion can take it there).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import (
    IllFormedModelError,
    NumericsError,
    PepaError,
    reraise_ir_errors,
)
from repro.ir import solve
from repro.pepa.ctmc import ctmc_of
from repro.pepa.passage import PassageTimeResult
from repro.pepa.statespace import derive
from repro.pepa.syntax import (
    Choice,
    Constant,
    Cooperation,
    Model,
    PassiveLiteral,
    Prefix,
    ProcessDef,
)
from repro.pepa.wellformed import alphabet

__all__ = ["attach_probe", "probe_passage_time", "PROBE_STOPPED", "PROBE_RUNNING"]

PROBE_STOPPED = "ProbeStopped"
PROBE_RUNNING = "ProbeRunning"


def attach_probe(model: Model, start_action: str, stop_action: str) -> Model:
    """Return a copy of ``model`` with a two-state observer attached.

    The probe cooperates on ``{start_action, stop_action}`` with the
    whole system equation and is always passively willing to observe
    either action, so the probed model is stochastically identical to
    the original (same rates, doubled state labels at most).

    Raises
    ------
    IllFormedModelError
        If either action is not in the system's alphabet (the probe
        would never fire), the two actions coincide, or the model
        already defines a component with the probe's reserved names.
    """
    if start_action == stop_action:
        raise IllFormedModelError("probe start and stop actions must differ")
    system_alphabet = alphabet(model, model.system)
    for action in (start_action, stop_action):
        if action not in system_alphabet:
            raise IllFormedModelError(
                f"probed action {action!r} is not in the system alphabet "
                f"{sorted(system_alphabet)}"
            )
    for reserved in (PROBE_STOPPED, PROBE_RUNNING):
        if model.process_body(reserved) is not None:
            raise IllFormedModelError(
                f"model already defines {reserved!r}; rename that component"
            )
    passive = PassiveLiteral()
    stopped = Choice(
        Prefix(start_action, passive, Constant(PROBE_RUNNING)),
        Prefix(stop_action, passive, Constant(PROBE_STOPPED)),
    )
    running = Choice(
        Prefix(stop_action, passive, Constant(PROBE_STOPPED)),
        Prefix(start_action, passive, Constant(PROBE_RUNNING)),
    )
    probe_defs = (
        ProcessDef(PROBE_STOPPED, stopped),
        ProcessDef(PROBE_RUNNING, running),
    )
    system = Cooperation(
        model.system, Constant(PROBE_STOPPED), (start_action, stop_action)
    )
    return Model(
        rate_defs=model.rate_defs,
        process_defs=model.process_defs + probe_defs,
        system=system,
        source_name=f"{model.source_name}+probe({start_action}->{stop_action})",
    )


def probe_passage_time(
    model: Model,
    start_action: str,
    stop_action: str,
    times: Sequence[float],
    max_states: int = 1_000_000,
) -> PassageTimeResult:
    """Steady-state passage time from a ``start_action`` completion to
    the next ``stop_action`` completion.

    The source distribution weights each post-``start`` state by the
    equilibrium probability flux of ``start_action`` into it; the CDF
    is the first passage into any probe-Stopped state.

    Raises
    ------
    PepaError
        If the probed chain has no ``start_action`` flux at equilibrium
        (the passage is never initiated).
    """
    probed = attach_probe(model, start_action, stop_action)
    space = derive(probed, max_states=max_states)
    if start_action not in space.actions:
        # Diagnose before solving: with zero start-labelled transitions
        # there is no flux at any distribution, and the probed chain may
        # not even admit a steady state (e.g. it deadlocks instantly).
        raise PepaError(
            f"no equilibrium flux of {start_action!r}: the passage never starts"
        )
    chain = ctmc_of(space)
    pi = chain.steady_state().pi
    probe_leaf = space.leaf_index(PROBE_STOPPED)
    running_locals = {
        j
        for j in range(len(space.local_terms[probe_leaf]))
        if space.local_label(probe_leaf, j) == PROBE_RUNNING
    }

    # Flux-weighted entry distribution: every start-labelled transition
    # that switches the probe from Stopped to Running.
    weights = np.zeros(chain.n_states)
    for tr in space.transitions:
        if tr.action != start_action:
            continue
        src_local = space.states[tr.source][probe_leaf]
        dst_local = space.states[tr.target][probe_leaf]
        if src_local not in running_locals and dst_local in running_locals:
            weights[tr.target] += pi[tr.source] * tr.rate
    total = weights.sum()
    if total <= 0:
        raise PepaError(
            f"no equilibrium flux of {start_action!r}: the passage never starts"
        )
    weights /= total

    targets = [
        i
        for i in range(chain.n_states)
        if space.states[i][probe_leaf] not in running_locals
    ]
    with reraise_ir_errors(NumericsError):
        return solve(
            chain.lower(),
            "passage",
            targets=tuple(targets),
            times=np.asarray(times, dtype=np.float64),
            pi0=weights,
        )
