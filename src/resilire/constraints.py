"""Constraints, their translation to ideal bases, and bad-state predicates.

Safety conditions are positive constraints (existential patterns closed
under and/or); they denote upward-closed sets and are translated into
ideal bases.  A bad set is a negative constraint, whatever mode its
document wrote (the loader rewrites each into one), and denotes a
downward-closed set: the complement of the ideal of its negation.  A
graph pattern is a `Graph` that may lack a control node; a marking
pattern is a `Marking` whose state and marker may be None, matching any.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import ModelError
from .graphs import Graph, GraphClass
from .limits import DEFAULT_LIMITS, Limits
from .order import Basis, minimize
from .petri import MARKERS, Marking, VectorOrder
from .rewriting import SubgraphOrder, glue, overlaps
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
        self.states = tuple(states or ())
        self.annotate = annotate

    def complete(self, pattern: Marking) -> List[Marking]:
        states = [pattern.state] if pattern.state is not None else (
            sorted(self.states) or [None])
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


class GraphDomain:
    """Completion of graph patterns over the joint graph class."""

    def __init__(self, klass: GraphClass, order: SubgraphOrder,
                 limits: Limits = DEFAULT_LIMITS):
        self.klass = klass
        self.order = order
        self.limits = limits
        self.states = tuple(sorted(klass.control_labels))

    def complete(self, pattern: Graph) -> List[Graph]:
        klass = self.klass
        states = [None] if klass.control_of(pattern) is not None else (
            list(self.states) or [None])
        markers = [None] if klass.marker_of(pattern) is not None else (
            sorted(klass.marker_labels) or [None])
        variants = [ctl.with_control(pattern, q, mk) for q in states for mk in markers]
        return [h for h in (klass.admit(v, subgraph=True) for v in variants) if h is not None]

    def meet(self, p: Graph, q: Graph) -> List[Graph]:
        return [glue(p, q, *pairs) for pairs in overlaps(p, q, self.limits)]


# ---------------------------------------------------------------------------
# translation to ideal bases / anti-ideal predicates
# ---------------------------------------------------------------------------


def _basis_patterns(c, domain, where: str) -> List:
    if isinstance(c, Exists):
        if not domain.complete(c.pattern):
            raise ModelError([(where,
                               "pattern %r lies outside the state class" % (c.pattern,))])
        return [c.pattern]
    if isinstance(c, (And, Or)):
        branches = [_basis_patterns(p, domain, "%s/args/%d" % (where, i))
                    for i, p in enumerate(c.parts)]
        if isinstance(c, Or):
            return [p for branch in branches for p in branch]
        acc = [None]
        for branch in branches:
            acc = [m
                   for a in acc
                   for b in branch
                   for m in ([b] if a is None else domain.meet(a, b))]
        return [a for a in acc if a is not None]
    raise ModelError([(where + "/op", "a leaf of the wrong sign: safety is a positive "
                                      "constraint, a custom bad set a negative one")])


def ideal_basis_of(c, domain, where: str = "/safety") -> Basis:
    """Basis of the states satisfying a positive constraint.

    Each existential leaf must contribute at least one basis element: a
    completion that embeds in some state of the class (it may lie below
    a `node_count` minimum).  A leaf with none is reported rather than
    silently dropped, and a negative leaf is refused, both at the JSON
    pointer of the leaf under `where`, the constraint's own pointer.
    """
    states = [s for p in _basis_patterns(c, domain, where) for s in domain.complete(p)]
    return minimize(states, domain.order)


class BadSet:
    """A decidable downward-closed bad condition."""

    def __init__(self, fn):
        self._fn = fn

    def contains(self, state) -> bool:
        return self._fn(state)
