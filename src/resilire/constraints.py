"""Safety conditions and bad-state predicates.

Safety conditions are positive constraints (existential patterns closed
under and/or); they denote upward-closed sets and are translated into
ideal bases.  Bad conditions are downward-closed and stay predicates:
control-state or marker observations, the complement of the safety
ideal ("error" mode), or a negative constraint, read as the complement
of the ideal of its negation.  A graph pattern is a `Graph` that may
lack a control node; a marking pattern is a `Marking` whose state and
marker may be None, matching any.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import ModelError
from .graphs import Graph, GraphClass
from .limits import DEFAULT_LIMITS, Limits
from .order import Basis, covers, minimize
from .petri import ENVIRONMENT, MARKERS, Marking, VectorOrder
from .rewriting import SubgraphOrder, overlaps
from . import control as ctl


@dataclass(frozen=True)
class Exists:
    pattern: object


@dataclass(frozen=True)
class NotExists:
    pattern: object


@dataclass(frozen=True)
class And:
    parts: Tuple


@dataclass(frozen=True)
class Or:
    parts: Tuple


def polarity(c) -> str:
    """'positive', 'negative', or 'mixed'."""
    kinds = set()

    def walk(node):
        if isinstance(node, Exists):
            kinds.add("positive")
        elif isinstance(node, NotExists):
            kinds.add("negative")
        elif isinstance(node, (And, Or)):
            for p in node.parts:
                walk(p)
        else:
            raise TypeError("not a constraint: %r" % (node,))

    walk(c)
    if kinds == {"positive"}:
        return "positive"
    if kinds == {"negative"}:
        return "negative"
    return "mixed"


def negate(c):
    """De Morgan dual; flips polarity."""
    if isinstance(c, Exists):
        return NotExists(c.pattern)
    if isinstance(c, NotExists):
        return Exists(c.pattern)
    if isinstance(c, And):
        return Or(tuple(negate(p) for p in c.parts))
    if isinstance(c, Or):
        return And(tuple(negate(p) for p in c.parts))
    raise TypeError("not a constraint: %r" % (c,))


# ---------------------------------------------------------------------------
# state domains: how patterns become basis elements of the joint state set
# ---------------------------------------------------------------------------


class MarkingDomain:
    """Completion of marking patterns over the automaton states/markers."""

    def __init__(self, order: VectorOrder,
                 states: Optional[Tuple[str, ...]] = None, annotate: bool = False):
        self.order = order
        self.states = tuple(states) if states else None
        self.annotate = annotate

    def complete(self, pattern: Marking) -> List[Marking]:
        states = [pattern.state] if pattern.state is not None else (
            sorted(self.states) if self.states else [None])
        markers = [pattern.marker] if pattern.marker is not None else (
            sorted(MARKERS) if self.annotate else [None])
        return [Marking(pattern.tokens, q, mk) for q in states for mk in markers]

    def meet(self, p: Marking, q: Marking) -> List[Marking]:
        def merge(x, y):
            if x is None or x == y:
                return y if y is not None else x
            if y is None:
                return x
            return False  # incompatible

        state = merge(p.state, q.state)
        marker = merge(p.marker, q.marker)
        if state is False or marker is False:
            return []
        toks = tuple(max(a, b) for a, b in zip(p.tokens, q.tokens))
        return [Marking(toks, state, marker)]

    def state_of(self, m: Marking):
        return m.state

    def marker_of(self, m: Marking):
        return m.marker


class GraphDomain:
    """Completion of graph patterns over the joint graph class."""

    def __init__(self, klass: GraphClass, order: SubgraphOrder,
                 limits: Limits = DEFAULT_LIMITS):
        self.klass = klass
        self.order = order
        self.limits = limits

    def complete(self, pattern: Graph) -> List[Graph]:
        klass = self.klass
        states = [None] if klass.control_of(pattern) is not None else (
            sorted(klass.control_labels) or [None])
        markers = [None] if klass.marker_of(pattern) is not None else (
            sorted(klass.marker_labels) or [None])
        variants = [ctl.with_control(pattern, q, mk) for q in states for mk in markers]
        return [h for h in (klass.admit(v, subgraph=True) for v in variants) if h is not None]

    def meet(self, p: Graph, q: Graph) -> List[Graph]:
        return [ov.u for ov in overlaps(p, q, self.limits)]

    def state_of(self, g: Graph):
        return self.klass.control_of(g)

    def marker_of(self, g: Graph):
        return self.klass.marker_of(g)


# ---------------------------------------------------------------------------
# translation to ideal bases / anti-ideal predicates
# ---------------------------------------------------------------------------


def _basis_patterns(c, domain, where: str) -> List:
    if isinstance(c, Exists):
        if not domain.complete(c.pattern):
            raise ModelError([(where,
                               "pattern %r lies outside the state class" % (c.pattern,))])
        return [c.pattern]
    if isinstance(c, Or):
        out = []
        for p in c.parts:
            out.extend(_basis_patterns(p, domain, where))
        return out
    if isinstance(c, And):
        acc = [None]
        for part in c.parts:
            branch = _basis_patterns(part, domain, where)
            acc = [m
                   for a in acc
                   for b in branch
                   for m in ([b] if a is None else domain.meet(a, b))]
        return [a for a in acc if a is not None]
    raise ModelError([(where, "needs a positive constraint")])


def ideal_basis_of(c, domain, where: str = "/safety") -> Basis:
    """Basis of the states satisfying a positive constraint.

    Each existential leaf must contribute at least one basis element: a
    completion that embeds in some state of the class (it may lie below
    a `node_count` minimum).  A leaf with none is reported rather than
    silently dropped, and a negative leaf is refused, both at the JSON
    pointer `where` of the constraint.
    """
    states = [s for p in _basis_patterns(c, domain, where) for s in domain.complete(p)]
    return minimize(states, domain.order)


class BadSet:
    """A decidable downward-closed bad condition."""

    def __init__(self, fn):
        self._fn = fn

    def contains(self, state) -> bool:
        return self._fn(state)


def anti_ideal_of(spec: dict, domain, safe_basis: Optional[Basis] = None) -> BadSet:
    """Build the bad-set predicate from its model-file spec.

    Modes: 'adverse' observes the control state and/or the environment
    marker; 'error' is the complement of the safety ideal; 'custom'
    takes a negative constraint, the complement of the ideal of its
    negation.
    """
    mode = spec.get("mode")
    if mode == "error":
        if safe_basis is None:
            raise ModelError([("/bad", "error mode needs the safety basis")])
        return BadSet(lambda s: not covers(safe_basis, s))
    if mode == "adverse":
        states = frozenset(spec.get("states") or ())
        env_marker = bool(spec.get("env_marker", False))
        if not states and not env_marker:
            raise ModelError([("/bad",
                               "adverse mode needs 'states' and/or 'env_marker'")])

        def fn(s):
            if states and domain.state_of(s) in states:
                return True
            return env_marker and domain.marker_of(s) == ENVIRONMENT

        return BadSet(fn)
    if mode == "custom":
        c = spec.get("constraint")
        if c is None or polarity(c) != "negative":
            raise ModelError([("/bad", "custom mode needs a negative constraint")])
        good = ideal_basis_of(negate(c), domain, "/bad/constraint")
        return BadSet(lambda s: not covers(good, s))
    raise ModelError([("/bad", "unknown bad-set mode %r" % mode)])
