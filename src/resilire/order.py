"""Well-quasi-order primitives: antichains, ideal bases, coverage tests.

An upward-closed set of states (an ideal) is represented by its finite
basis: the antichain of minimal elements, kept in a canonical order so
that every computation over bases is reproducible byte for byte.
Downward-closed sets have no useful finite basis and are handled
elsewhere as membership predicates.

An order may split its states into blocks, sets whose members are never
comparable across blocks (`Wqo.block`).  Minimization and coverage then
compare a state only with the elements of its own block; the default is
a single block, so such an order pays nothing for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
      dominators are always seen before the states they dominate;
    * ``block(a)``  -- optional hashable block of ``a``, with the contract
      ``leq(a, b)`` implies ``block(a) == block(b)``.  States of different
      blocks are never compared.  The default puts every state in one
      block.
    """

    def leq(self, a, b) -> bool:
        raise NotImplementedError

    def key(self, a):
        raise NotImplementedError

    def size(self, a) -> int:
        raise NotImplementedError

    def block(self, a):
        return None


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

    @cached_property
    def by_block(self) -> dict:
        """The elements grouped by their order's block, built on first use."""
        index: dict = {}
        for b in self.elements:
            index.setdefault(self.order.block(b), []).append(b)
        return index


def minimize(states: Iterable, order: Wqo) -> Basis:
    """Reduce a finite generating set to the basis of its upward closure.

    Deterministic: duplicates (by canonical key) collapse to their first
    occurrence, elements are examined in (size, key) order, and the
    result is sorted by key.  Of two order-equivalent elements the one
    with the smaller canonical key is kept.  A candidate is compared only
    with the kept elements of its own block.
    """
    by_key: dict = {}
    for s in states:
        by_key.setdefault(order.key(s), s)
    kept_in: dict = {}
    for _, s in sorted(by_key.items(), key=lambda kv: (order.size(kv[1]), kv[0])):
        peers = kept_in.setdefault(order.block(s), [])
        if not any(order.leq(t, s) for t in peers):
            peers.append(s)
    kept = sorted((s for peers in kept_in.values() for s in peers), key=order.key)
    return Basis(order, tuple(kept))


def covers(basis: Basis, state) -> bool:
    """Membership of `state` in the ideal generated by `basis`."""
    peers = basis.by_block.get(basis.order.block(state), ())
    return any(basis.order.leq(b, state) for b in peers)


def basis_subset(states: Iterable, basis: Basis) -> bool:
    """True iff every given state lies in the ideal generated by `basis`."""
    return all(covers(basis, s) for s in states)

