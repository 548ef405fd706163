"""Constraints, their translation to ideal bases, and bad-state predicates.

Safety conditions are positive constraints (existential patterns closed
under and/or); they denote upward-closed sets and are translated into
ideal bases.  A bad set is a negative constraint, whatever mode its
document wrote (the loader rewrites each into one), and denotes a
downward-closed set: the complement of the ideal of its negation.  A
graph pattern is a `Graph` that may lack a control node; a marking
pattern is a `Marking` whose state and marker may be None, matching any.
The translation asks the backend, which is the state space, to
`complete` a pattern into states and to `meet` two patterns into the
generators of their common upward closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .errors import ModelError
from .order import Basis, minimize


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
# translation to ideal bases / anti-ideal predicates
# ---------------------------------------------------------------------------


def _basis_patterns(c, backend, where: str) -> List:
    if isinstance(c, Exists):
        if not backend.complete(c.pattern):
            raise ModelError([(where,
                               "pattern %r lies outside the state class" % (c.pattern,))])
        return [c.pattern]
    if isinstance(c, (And, Or)):
        branches = [_basis_patterns(p, backend, "%s/args/%d" % (where, i))
                    for i, p in enumerate(c.parts)]
        if isinstance(c, Or):
            return [p for branch in branches for p in branch]
        acc = [None]
        for branch in branches:
            acc = [m
                   for a in acc
                   for b in branch
                   for m in ([b] if a is None else backend.meet(a, b))]
        return [a for a in acc if a is not None]
    raise ModelError([(where + "/op", "a leaf of the wrong sign: safety is a positive "
                                      "constraint, a custom bad set a negative one")])


def ideal_basis_of(c, backend, where: str = "/safety") -> Basis:
    """Basis of the states satisfying a positive constraint.

    Each existential leaf must contribute at least one basis element: a
    completion that embeds in some state of the class (it may lie below
    a `node_count` minimum).  A leaf with none is reported rather than
    silently dropped, and a negative leaf is refused, both at the JSON
    pointer of the leaf under `where`, the constraint's own pointer.
    """
    states = [s for p in _basis_patterns(c, backend, where) for s in backend.complete(p)]
    return minimize(states, backend.order)


class BadSet:
    """A decidable downward-closed bad condition."""

    def __init__(self, fn):
        self._fn = fn

    def contains(self, state) -> bool:
        return self._fn(state)
