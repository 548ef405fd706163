"""Safety conditions and bad-state predicates.

Safety conditions are positive constraints (existential patterns closed
under and/or); they denote upward-closed sets and are translated into
ideal bases.  Bad conditions are downward-closed and stay predicates:
negative constraints, control-state or marker observations, or the
complement of the safety ideal ("error" mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import ModelError
from .graphs import Graph, GraphClass, exists_embedding
from .limits import DEFAULT_LIMITS, Limits
from .order import Basis, covers, minimize
from .petri import ENVIRONMENT, MARKERS, Marking, PetriNet, VectorOrder
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


@dataclass(frozen=True)
class VectorPattern:
    """`Exists` leaf for marking states: cover these token counts, and
    agree on the control state / marker when one is named."""

    tokens: Tuple[int, ...]
    state: Optional[str] = None
    marker: Optional[str] = None

    def matches(self, m: Marking) -> bool:
        if self.state is not None and m.state != self.state:
            return False
        if self.marker is not None and m.marker != self.marker:
            return False
        return all(x <= y for x, y in zip(self.tokens, m.tokens))


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


def _pattern_matches(pattern, state) -> bool:
    if isinstance(pattern, Graph):
        return exists_embedding(pattern, state)
    return pattern.matches(state)


def satisfies(state, c) -> bool:
    if isinstance(c, Exists):
        return _pattern_matches(c.pattern, state)
    if isinstance(c, NotExists):
        return not _pattern_matches(c.pattern, state)
    if isinstance(c, And):
        return all(satisfies(state, p) for p in c.parts)
    if isinstance(c, Or):
        return any(satisfies(state, p) for p in c.parts)
    raise TypeError("not a constraint: %r" % (c,))


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
    """Completion of vector patterns over the automaton states/markers."""

    def __init__(self, net: PetriNet, order: VectorOrder,
                 states: Optional[Tuple[str, ...]] = None, annotate: bool = False):
        self.net = net
        self.order = order
        self.states = tuple(states) if states else None
        self.annotate = annotate

    def complete(self, pattern: VectorPattern) -> List[Marking]:
        states = [pattern.state] if pattern.state is not None else (
            sorted(self.states) if self.states else [None])
        markers = [pattern.marker] if pattern.marker is not None else (
            sorted(MARKERS) if self.annotate else [None])
        return [Marking(pattern.tokens, q, mk) for q in states for mk in markers]

    def meet(self, p: VectorPattern, q: VectorPattern) -> List[VectorPattern]:
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
        return [VectorPattern(toks, state, marker)]

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
        return [h for h in map(klass.admit, variants) if h is not None]

    def meet(self, p: Graph, q: Graph) -> List[Graph]:
        return [ov.u for ov in overlaps(p, q, self.limits)]

    def state_of(self, g: Graph):
        return self.klass.control_of(g)

    def marker_of(self, g: Graph):
        return self.klass.marker_of(g)


# ---------------------------------------------------------------------------
# translation to ideal bases / anti-ideal predicates
# ---------------------------------------------------------------------------


def _basis_patterns(c, domain) -> List:
    if isinstance(c, Exists):
        return [c.pattern]
    if isinstance(c, Or):
        out = []
        for p in c.parts:
            out.extend(_basis_patterns(p, domain))
        return out
    if isinstance(c, And):
        acc = [None]
        for part in c.parts:
            branch = _basis_patterns(part, domain)
            acc = [m
                   for a in acc
                   for b in branch
                   for m in ([b] if a is None else domain.meet(a, b))]
        return [a for a in acc if a is not None]
    raise ModelError([("/safety", "safety must be a positive constraint")])


def ideal_basis_of(c, domain) -> Basis:
    """Basis of the states satisfying a positive constraint.

    Each existential leaf must contribute at least one state of the
    class; a leaf whose pattern cannot be completed into the class is
    reported rather than silently dropped.
    """
    if polarity(c) != "positive":
        raise ModelError([("/safety", "safety must be a positive constraint")])

    def check_leaves(node):
        if isinstance(node, Exists):
            if not domain.complete(node.pattern):
                raise ModelError([("/safety",
                                   "pattern of %r lies outside the state class" % (node,))])
        elif isinstance(node, (And, Or)):
            for p in node.parts:
                check_leaves(p)

    check_leaves(c)
    states = [s for p in _basis_patterns(c, domain) for s in domain.complete(p)]
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
    takes a negative constraint.
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
        return BadSet(lambda s: satisfies(s, c))
    raise ModelError([("/bad", "unknown bad-set mode %r" % mode)])
