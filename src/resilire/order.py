"""Well-quasi-order primitives: antichains, ideal bases, coverage tests.

An upward-closed set of states (an ideal) is represented by its finite
basis: the antichain of minimal elements, kept in a canonical order so
that every computation over bases is reproducible byte for byte.
Downward-closed sets have no useful finite basis and are handled
elsewhere as membership predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

State = Any


class Wqo:
    """A decidable well-quasi-order plus a canonical state encoding.

    Subclasses provide:

    * ``leq(a, b)`` -- reflexive, transitive, decidable;
    * ``key(a)``    -- total canonical encoding; equal keys imply the
      states are order-equivalent (each below the other);
    * ``size(a)``   -- cheap monotone proxy: ``leq(a, b)`` implies
      ``size(a) <= size(b)``, with equality only when the states are
      order-equivalent.  Minimization sorts on it so that potential
      dominators are always seen before the states they dominate.
    """

    def leq(self, a, b) -> bool:
        raise NotImplementedError

    def key(self, a):
        raise NotImplementedError

    def size(self, a) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Basis:
    """A finite antichain of minimal elements, canonically sorted."""

    order: Wqo
    elements: tuple

    def __iter__(self) -> Iterator:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __bool__(self) -> bool:
        return bool(self.elements)

    def covers(self, state) -> bool:
        return covers(self, state)


def minimize(states: Iterable, order: Wqo) -> Basis:
    """Reduce a finite generating set to the basis of its upward closure.

    Deterministic: duplicates (by canonical key) collapse to their first
    occurrence, elements are examined in (size, key) order, and the
    result is sorted by key.  Of two order-equivalent elements the one
    with the smaller canonical key is kept.
    """
    by_key: dict = {}
    for s in states:
        by_key.setdefault(order.key(s), s)
    kept: list = []
    for _, s in sorted(by_key.items(), key=lambda kv: (order.size(kv[1]), kv[0])):
        if not any(order.leq(t, s) for t in kept):
            kept.append(s)
    kept.sort(key=order.key)
    return Basis(order, tuple(kept))


def covers(basis: Basis, state) -> bool:
    """Membership of `state` in the ideal generated by `basis`."""
    return any(basis.order.leq(b, state) for b in basis.elements)


def basis_subset(states: Iterable, basis: Basis) -> bool:
    """True iff every given state lies in the ideal generated by `basis`."""
    return all(covers(basis, s) for s in states)

