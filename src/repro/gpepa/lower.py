"""Lowering grouped PEPA models to the shared reaction IR.

The Hayden–Bradley fluid semantics compiles, per action, an evaluation
*plan* mirroring the composition tree — leaves carry the group's local
transitions, cooperation nodes apply min (shared action) or sum
(unshared) with normalized-min sharing.  Every leaf owns a contiguous
range of *slots*, one per local transition, numbered depth-first
left-to-right across the sorted actions (Ding & Hillston's numerical
vector form).  The SSA, the fluid RHS and the LNA all read the slots.
This module owns that compiled form and packages it as a
:class:`repro.ir.ReactionIR`:

* each slot becomes one *reaction* with stoichiometry ``-1`` source /
  ``+1`` target (self-loops give a zero column: a no-op firing that
  still consumes RNG draws, exactly like the pre-IR simulator);
* :class:`PlanPropensities` evaluates the sharing rule — the one scalar
  walk of the plans, :func:`_fill` — into the slots (``sampler="scan"``
  preserves GPEPA's RNG discipline: zero-propensity slots neither
  accumulate nor fire); :class:`BatchPlanPropensities` is its batched
  twin for the SSA ensemble kernel, which self-checks it against the
  scalar walk;
* :class:`PlanRhs` is the fluid right-hand side: the slot flows
  scattered onto their sources and targets in one ordered
  ``np.add.at``.  The IR carries it as a custom ``rhs`` for that
  summation order (leaf by leaf, drain the sources, then fill the
  targets), which a plain ``N @ v(x)`` would not reproduce bit for bit.

The LNA's diffusion term (:mod:`repro.gpepa.lna`) reads the same slots.
All callables are small classes (not closures) so ensemble fan-out can
pickle them onto a process pool.
"""

from __future__ import annotations

import numpy as np

from repro.gpepa.model import GroupCooperation, GroupReference, GroupedModel
from repro.gpepa.wellformed import check_model
from repro.ir import ReactionIR

__all__ = [
    "lower_reactions",
    "model_token",
    "BatchPlanPropensities",
    "PlanPropensities",
    "PlanRhs",
]


def _compile(model: GroupedModel, node, action: str, counter: list[int]):
    """Evaluation plan of ``action`` mirroring the composition tree.

    Leaves are ``("leaf", src, tgt, rates, start)``: the group's local
    transitions of ``action`` and the first of their slots, taken from
    ``counter`` in depth-first left-to-right order.
    """
    if isinstance(node, GroupReference):
        flows = [
            t for t in model.transitions
            if t.group == node.label and t.action == action
        ]
        src = np.array([f.source for f in flows], dtype=np.intp)
        tgt = np.array([f.target for f in flows], dtype=np.intp)
        rates = np.array([f.rate for f in flows], dtype=np.float64)
        start = counter[0]
        counter[0] += src.size
        return ("leaf", src, tgt, rates, start)
    assert isinstance(node, GroupCooperation)
    left = _compile(model, node.left, action, counter)
    right = _compile(model, node.right, action, counter)
    return ("coop", action in node.actions, left, right)


def _plan_rate(plan, x: np.ndarray) -> float:
    """Unthrottled apparent rate of a compiled subtree."""
    if plan[0] == "leaf":
        src, rates = plan[1], plan[3]
        if src.size == 0:
            return 0.0
        return float(np.dot(x[src], rates))
    _tag, shared, left, right = plan
    rl = _plan_rate(left, x)
    rr = _plan_rate(right, x)
    return min(rl, rr) if shared else rl + rr


def _fill(plan, x: np.ndarray, out: np.ndarray, scale: float) -> None:
    """Write throttled per-transition flows into their fixed slots.

    ``scale`` is the ratio of the rate granted from above to this
    subtree's own apparent rate (1.0 when unthrottled).  Subtrees whose
    granted scale is zero are skipped, leaving their slots at 0.0 —
    which the ``scan`` sampler neither accumulates nor fires, so the RNG
    stream matches the positive-only scan of the pre-IR simulator.
    """
    if scale == 0.0:
        return
    if plan[0] == "leaf":
        _tag, src, _tgt, rates, start = plan
        if src.size == 0:
            return
        out[start : start + src.size] = x[src] * rates * scale
        return
    _tag, shared, left, right = plan
    if not shared:
        _fill(left, x, out, scale)
        _fill(right, x, out, scale)
        return
    rl = _plan_rate(left, x)
    rr = _plan_rate(right, x)
    granted = min(rl, rr) * scale
    _fill(left, x, out, 0.0 if rl == 0.0 else granted / rl)
    _fill(right, x, out, 0.0 if rr == 0.0 else granted / rr)


def action_plan(model: GroupedModel, action: str):
    """The compiled plan of one ``action`` (slots numbered from 0)."""
    if action not in model.actions:
        raise KeyError(
            f"model has no action {action!r}; actions: {sorted(model.actions)}"
        )
    return _compile(model, model.system, action, [0])


def _leaves(plan):
    """Leaves of a plan in slot order."""
    if plan[0] == "leaf":
        yield plan
        return
    yield from _leaves(plan[2])
    yield from _leaves(plan[3])


class PlanPropensities:
    """Per-transition propensities at counts ``x``, in fixed slots.

    ``sources[k]``/``targets[k]`` are the coordinates slot ``k`` drains
    and fills.
    """

    def __init__(self, model: GroupedModel):
        self.actions = sorted(model.actions)
        counter = [0]
        self.plans = tuple(
            _compile(model, model.system, a, counter) for a in self.actions
        )
        self.n_slots = counter[0]
        leaves = [leaf for plan in self.plans for leaf in _leaves(plan)]
        self.sources = np.array(
            [s for leaf in leaves for s in leaf[1]], dtype=np.intp
        )
        self.targets = np.array(
            [t for leaf in leaves for t in leaf[2]], dtype=np.intp
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_slots)
        for plan in self.plans:
            _fill(plan, x, out, 1.0)
        return out


def _rate_batch(plan, states: np.ndarray) -> np.ndarray:
    """Batched :func:`_plan_rate`: apparent rates for every batch row.

    Only valid on plans whose every leaf has at most one transition —
    a one-element ``np.dot`` is a single multiply, so the batched
    column equals the scalar dot bit for bit.  Multi-transition leaves
    would route through BLAS ``ddot``, whose accumulation order is not
    replicable elementwise.
    """
    if plan[0] == "leaf":
        src, rates = plan[1], plan[3]
        if src.size == 0:
            return np.zeros(states.shape[0])
        return states[:, src[0]] * rates[0]
    _tag, shared, left, right = plan[0], plan[1], plan[2], plan[3]
    rl = _rate_batch(left, states)
    rr = _rate_batch(right, states)
    return np.minimum(rl, rr) if shared else rl + rr


def _fill_batch(plan, states: np.ndarray, out: np.ndarray, scale: np.ndarray) -> None:
    """Batched :func:`_fill`: ``scale`` carries one granted ratio per row.

    Rows whose scale is zero keep their slots at 0.0 (`np.where`), which
    is exactly the scalar traversal's early return on ``scale == 0.0``.
    """
    if not scale.any():
        return
    if plan[0] == "leaf":
        _tag, src, _tgt, rates, start = plan
        if src.size == 0:
            return
        col = states[:, src[0]] * rates[0] * scale
        out[:, start] = np.where(scale == 0.0, 0.0, col)
        return
    _tag, shared, left, right = plan
    if not shared:
        _fill_batch(left, states, out, scale)
        _fill_batch(right, states, out, scale)
        return
    rl = _rate_batch(left, states)
    rr = _rate_batch(right, states)
    granted = np.minimum(rl, rr) * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        _fill_batch(left, states, out, np.where(rl == 0.0, 0.0, granted / rl))
        _fill_batch(right, states, out, np.where(rr == 0.0, 0.0, granted / rr))


def _batchable(plan) -> bool:
    """Whether every leaf has at most one transition (see `_rate_batch`)."""
    if plan[0] == "leaf":
        return plan[1].size <= 1
    return _batchable(plan[2]) and _batchable(plan[3])


class BatchPlanPropensities:
    """Batched propensity matrix ``V(X) -> (B, n_slots)``.

    Shares the compiled plans of a :class:`PlanPropensities` and
    produces, row by row, exactly its output — attached to the IR only
    when :func:`_batchable` holds for every action plan.
    """

    def __init__(self, scalar: PlanPropensities):
        self.plans = scalar.plans
        self.n_slots = scalar.n_slots

    def __call__(self, states: np.ndarray) -> np.ndarray:
        out = np.zeros((states.shape[0], self.n_slots))
        ones = np.ones(states.shape[0])
        for plan in self.plans:
            _fill_batch(plan, states, out, ones)
        return out


class PlanRhs:
    """The fluid ODE right-hand side ``f(t, x) -> dx/dt``.

    Scatters every slot's flow onto its coordinates with one ordered
    ``np.add.at``: leaf by leaf, the sources are drained (``sign`` -1)
    and then the targets filled (+1).  The ``ode`` backend's pinned bits
    depend on that summation order.  A skipped subtree's slots hold 0.0
    and add ±0.0 to entries that are never -0.0, so they change no bit.
    """

    def __init__(self, propensities: PlanPropensities, n_states: int):
        self.propensities = propensities
        self.n_states = n_states
        slot: list[int] = []
        index: list[int] = []
        sign: list[float] = []
        for plan in propensities.plans:
            for _tag, src, tgt, _rates, start in _leaves(plan):
                slots = range(start, start + src.size)
                slot += [*slots, *slots]
                index += [*src, *tgt]
                sign += [-1.0] * src.size + [1.0] * src.size
        self.slot = np.array(slot, dtype=np.intp)
        self.index = np.array(index, dtype=np.intp)
        self.sign = np.array(sign)

    def scatter(self, flows: np.ndarray) -> np.ndarray:
        """``dx/dt`` from the slot flows at one state."""
        dx = np.zeros(self.n_states)
        np.add.at(dx, self.index, flows[self.slot] * self.sign)
        return dx

    def __call__(self, _t: float, x: np.ndarray) -> np.ndarray:
        # Negative excursions from integrator round-off are clamped so
        # apparent rates stay physical.
        return self.scatter(self.propensities(np.clip(x, 0.0, None)))


def model_token(model: GroupedModel) -> tuple:
    """Canonically hashable identity of the model's dynamics.

    ``GroupedModel`` is a mutable builder class, so the cache token is a
    structural digest: state coordinates, local transitions, composition
    tree and initial counts determine every analysis result.
    """
    return (
        "gpepa",
        tuple(model.state_names),
        model.transitions,
        model.system,
        tuple(float(v) for v in model.initial_state()),
    )


def lower_reactions(model: GroupedModel, strict: bool = True) -> ReactionIR:
    """Lower the grouped model's population dynamics to a
    :class:`~repro.ir.ReactionIR` (memoized on the model).

    Well-formedness is checked on first lowering (errors raise);
    ``strict=False`` demotes errors to warnings.
    """
    memo = getattr(model, "_reaction_ir", None)
    if memo is not None:
        return memo
    check_model(model, strict=strict)
    propensities = PlanPropensities(model)
    names: list[str] = []
    for action, plan in zip(propensities.actions, propensities.plans):
        for _tag, src, tgt, _rates, _start in _leaves(plan):
            for s, t in zip(src, tgt):
                g_src, d_src = model.state_names[s]
                names.append(f"{action}:{g_src}.{d_src}->{model.state_names[t][1]}")
    N = np.zeros((model.n_states, propensities.n_slots))
    for j, (s, t) in enumerate(zip(propensities.sources, propensities.targets)):
        N[s, j] -= 1.0
        N[t, j] += 1.0
    batch = (
        BatchPlanPropensities(propensities)
        if all(_batchable(plan) for plan in propensities.plans)
        else None
    )
    ir = ReactionIR(
        species=tuple(f"{g}.{d}" for g, d in model.state_names),
        initial=model.initial_state(),
        stoichiometry=N,
        reaction_names=tuple(names),
        propensities=propensities,
        rhs=PlanRhs(propensities, model.n_states),
        batch_propensities=batch,
        sampler="scan",
        token=model_token(model),
    )
    model._reaction_ir = ir
    return ir
