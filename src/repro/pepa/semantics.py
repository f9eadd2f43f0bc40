"""Structured operational semantics of PEPA.

This module implements the *value* layer of the semantics:

* :class:`ActiveRate` / :class:`PassiveRate` — PEPA rate values.  A
  passive rate ``n * infty`` carries a relative weight ``n``; passive
  participants defer timing to their active cooperation partner.
* Rate-expression evaluation against a model's rate definitions.
* Apparent rates and the cooperation rate law::

      R = (r1 / r_alpha(P)) * (r2 / r_alpha(Q)) * min(r_alpha(P), r_alpha(Q))

* Local transitions of *sequential* components (Prefix / Choice /
  Constant), which is all that changes during evolution — the
  cooperation/hiding structure of a PEPA model is static.

The derivation engine in :mod:`repro.pepa.statespace` composes these
pieces over the static structure tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.errors import (
    CooperationError,
    IllFormedModelError,
    PepaError,
    UnboundConstantError,
    UnboundRateError,
)
from repro.pepa.syntax import (
    Choice,
    Constant,
    Model,
    PassiveLiteral,
    Prefix,
    ProcessTerm,
    RateBinOp,
    RateExpr,
    RateLiteral,
    RateName,
)

__all__ = [
    "TAU",
    "Rate",
    "ActiveRate",
    "PassiveRate",
    "rate_min",
    "rate_sum",
    "cooperation_rate",
    "RateEnvironment",
    "SequentialSemantics",
    "LocalTransition",
]

#: The silent action produced by hiding.
TAU = "tau"


# ---------------------------------------------------------------------------
# Rate values
# ---------------------------------------------------------------------------


class Rate:
    """Base class for evaluated PEPA rates."""

    __slots__ = ()

    @property
    def is_passive(self) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class ActiveRate(Rate):
    """A concrete exponential rate (events per time unit)."""

    value: float

    def __post_init__(self):
        if not self.value > 0:
            raise IllFormedModelError(
                f"activity rates must be strictly positive, got {self.value}"
            )

    @property
    def is_passive(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"ActiveRate({self.value})"


@dataclass(frozen=True)
class PassiveRate(Rate):
    """The passive rate ``w * infty``; ``w`` is a relative weight used to
    split the active partner's apparent rate among passive alternatives."""

    weight: float = 1.0

    def __post_init__(self):
        if not self.weight > 0:
            raise IllFormedModelError(
                f"passive weights must be strictly positive, got {self.weight}"
            )

    @property
    def is_passive(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"PassiveRate({self.weight})"


def rate_sum(a: Rate, b: Rate) -> Rate:
    """Apparent-rate addition.

    Active + active adds values; passive + passive adds weights.  Mixing
    an active and a passive activity of the *same* action type within
    one component is ill-formed in PEPA (the apparent rate would be
    undefined), so it raises :class:`CooperationError`.
    """
    if isinstance(a, ActiveRate) and isinstance(b, ActiveRate):
        return ActiveRate(a.value + b.value)
    if isinstance(a, PassiveRate) and isinstance(b, PassiveRate):
        return PassiveRate(a.weight + b.weight)
    raise CooperationError(
        "a component enables both active and passive activities of the same "
        "action type; the apparent rate is undefined"
    )


def rate_min(a: Rate, b: Rate) -> Rate:
    """Apparent-rate minimum: ``min(r, w*infty) = r`` for any finite r."""
    if isinstance(a, PassiveRate) and isinstance(b, PassiveRate):
        return PassiveRate(min(a.weight, b.weight))
    if isinstance(a, PassiveRate):
        return b
    if isinstance(b, PassiveRate):
        return a
    return ActiveRate(min(a.value, b.value))


def _fraction(part: Rate, whole: Rate) -> float:
    """The dimensionless share ``part / whole`` of an apparent rate."""
    if isinstance(part, ActiveRate) and isinstance(whole, ActiveRate):
        return part.value / whole.value
    if isinstance(part, PassiveRate) and isinstance(whole, PassiveRate):
        return part.weight / whole.weight
    raise CooperationError("cannot mix active and passive rates in one apparent rate")


def cooperation_rate(r1: Rate, ra1: Rate, r2: Rate, ra2: Rate) -> Rate:
    """The PEPA rate of one synchronized transition.

    ``r1``/``r2`` are the individual activity rates, ``ra1``/``ra2`` the
    apparent rates of the same action in each cooperand.  If both sides
    are passive the result stays passive (awaiting an active partner
    further up the cooperation tree).
    """
    shared_min = rate_min(ra1, ra2)
    f1 = _fraction(r1, ra1)
    f2 = _fraction(r2, ra2)
    if isinstance(shared_min, PassiveRate):
        if not (r1.is_passive and r2.is_passive):
            raise CooperationError("inconsistent passive cooperation")
        return PassiveRate(f1 * f2 * shared_min.weight)
    return ActiveRate(f1 * f2 * shared_min.value)


# ---------------------------------------------------------------------------
# Rate-expression evaluation
# ---------------------------------------------------------------------------


class RateEnvironment:
    """Evaluates rate expressions against a model's rate definitions.

    Definitions may reference each other (``r2 = 2 * r1``); reference
    cycles are detected and reported.
    """

    def __init__(self, model: Model):
        self._defs = model.rates
        self._cache: dict[str, Rate] = {}
        self._in_progress: set[str] = set()

    def lookup(self, name: str) -> Rate:
        if name in self._cache:
            return self._cache[name]
        if name not in self._defs:
            raise UnboundRateError(f"rate {name!r} is not defined")
        if name in self._in_progress:
            cycle = " -> ".join(sorted(self._in_progress | {name}))
            raise UnboundRateError(f"cyclic rate definitions involving {cycle}")
        self._in_progress.add(name)
        try:
            value = self.evaluate(self._defs[name])
        finally:
            self._in_progress.discard(name)
        self._cache[name] = value
        return value

    def evaluate(self, expr: RateExpr) -> Rate:
        """Evaluate a rate expression to an :class:`ActiveRate` or
        :class:`PassiveRate`."""
        if isinstance(expr, RateLiteral):
            return ActiveRate(expr.value)
        if isinstance(expr, PassiveLiteral):
            return PassiveRate(expr.weight)
        if isinstance(expr, RateName):
            return self.lookup(expr.name)
        if isinstance(expr, RateBinOp):
            left = self.evaluate(expr.left)
            right = self.evaluate(expr.right)
            return self._apply(expr.op, left, right)
        raise PepaError(f"cannot evaluate rate expression {expr!r}")

    @staticmethod
    def _apply(op: str, left: Rate, right: Rate) -> Rate:
        # Weighted passive: number * infty (either order).
        if op == "*" and isinstance(left, ActiveRate) and isinstance(right, PassiveRate):
            return PassiveRate(left.value * right.weight)
        if op == "*" and isinstance(left, PassiveRate) and isinstance(right, ActiveRate):
            return PassiveRate(left.weight * right.value)
        if isinstance(left, PassiveRate) or isinstance(right, PassiveRate):
            raise IllFormedModelError(
                f"operator {op!r} is not defined on passive rates "
                "(only 'weight * infty' is allowed)"
            )
        a, b = left.value, right.value
        if op == "+":
            return ActiveRate(a + b)
        if op == "-":
            result = a - b
            if result <= 0:
                raise IllFormedModelError(
                    f"rate expression evaluates to non-positive value {result}"
                )
            return ActiveRate(result)
        if op == "*":
            return ActiveRate(a * b)
        if op == "/":
            if b == 0:
                raise IllFormedModelError("division by zero in rate expression")
            return ActiveRate(a / b)
        raise PepaError(f"unknown rate operator {op!r}")


# ---------------------------------------------------------------------------
# Local transitions of sequential components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalTransition:
    """One enabled activity of a sequential component: performing
    ``action`` at ``rate`` moves the component to ``target``."""

    action: str
    rate: Rate
    target: ProcessTerm


class SequentialSemantics:
    """Derives local transitions of sequential PEPA terms.

    Sequential terms are built from Prefix, Choice and Constant only;
    cooperation or hiding nested below a choice/prefix is rejected (the
    standard PEPA restriction that keeps the global structure static).
    """

    def __init__(self, model: Model, max_unfold: int = 10_000):
        self._model = model
        self._rates = RateEnvironment(model)
        self._max_unfold = max_unfold
        self._transitions_cache: dict[ProcessTerm, tuple[LocalTransition, ...]] = {}

    @property
    def rate_environment(self) -> RateEnvironment:
        return self._rates

    def resolve(self, term: ProcessTerm) -> ProcessTerm:
        """Unfold constants until the head of the term is a Prefix or
        Choice, detecting unguarded recursion (``A = B; B = A;``)."""
        seen: list[str] = []
        while isinstance(term, Constant):
            body = self._model.process_body(term.name)
            if body is None:
                raise UnboundConstantError(
                    f"process constant {term.name!r} is not defined"
                )
            if term.name in seen:
                cycle = " = ".join(seen + [term.name])
                raise IllFormedModelError(
                    f"unguarded recursive definition: {cycle}"
                )
            seen.append(term.name)
            if len(seen) > self._max_unfold:
                raise IllFormedModelError("constant unfolding exceeded limit")
            term = body
        return term

    def transitions(self, term: ProcessTerm) -> tuple[LocalTransition, ...]:
        """All activities enabled by a sequential term.

        Constant targets are kept folded (not resolved) so that state
        labels stay human-readable (``Server'`` rather than its body).
        """
        cached = self._transitions_cache.get(term)
        if cached is not None:
            return cached
        result = tuple(self._derive(term, ()))
        self._transitions_cache[term] = result
        return result

    def _derive(self, term: ProcessTerm, trail: tuple[str, ...]):
        if isinstance(term, Prefix):
            yield LocalTransition(term.action, self._rates.evaluate(term.rate), term.continuation)
            return
        if isinstance(term, Choice):
            yield from self._derive(term.left, trail)
            yield from self._derive(term.right, trail)
            return
        if isinstance(term, Constant):
            body = self._model.process_body(term.name)
            if body is None:
                raise UnboundConstantError(
                    f"process constant {term.name!r} is not defined"
                )
            if term.name in trail:
                cycle = " = ".join(trail + (term.name,))
                raise IllFormedModelError(f"unguarded recursive definition: {cycle}")
            yield from self._derive(body, trail + (term.name,))
            return
        raise IllFormedModelError(
            "cooperation/hiding may not occur inside a sequential component "
            f"(offending subterm: {type(term).__name__})"
        )

    def apparent_rate(self, term: ProcessTerm, action: str) -> Rate | None:
        """Apparent rate of ``action`` in a sequential term, or ``None``
        if the action is not enabled."""
        total: Rate | None = None
        for tr in self.transitions(term):
            if tr.action == action:
                total = tr.rate if total is None else rate_sum(total, tr.rate)
        return total
