"""Well-quasi-order primitives: antichains, ideal bases, coverage tests.

An upward-closed set of states (an ideal) is represented by its finite
basis: the antichain of minimal elements, kept in a canonical order so
that every computation over bases is reproducible byte for byte.
Downward-closed sets have no useful finite basis and are handled
elsewhere as membership predicates.

Minimization asks an antichain index whether a kept element lies below
the candidate (`Wqo.antichain_index`); the default index scans with
`leq`, and an order may answer from a structure of its own instead
(markings: a token trie; graphs: each query's host prepared once).
An order may also split its states into blocks, sets whose members are
never comparable across blocks (`Wqo.block`).  Coverage then compares a
state only with the basis elements of its own block; the default is a
single block, so such an order pays nothing for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


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
      ``leq(a, b)`` implies ``block(a) == block(b)``.  ``covers`` and
      ``basis_subset`` never compare states of different blocks.  The
      default puts every state in one block;
    * ``antichain_index()`` -- optional: a fresh, empty index with
      ``add(s)`` and ``covers(s)``, where ``covers(s)`` tells whether some
      added state ``t`` has ``leq(t, s)``.  ``minimize`` builds one per
      side of a call, base and new; an index that splits its states by
      block does so itself.  The default scans the added states with
      ``leq``.
    """

    def leq(self, a, b) -> bool:
        raise NotImplementedError

    def key(self, a):
        raise NotImplementedError

    def size(self, a) -> int:
        raise NotImplementedError

    def block(self, a):
        return None

    def antichain_index(self):
        return _ScanIndex(self)


class _ScanIndex:
    """The default antichain index: a list scanned with the order's `leq`."""

    def __init__(self, order: Wqo):
        self._order = order
        self._items: list = []

    def add(self, s) -> None:
        self._items.append(s)

    def covers(self, s) -> bool:
        return any(self._order.leq(t, s) for t in self._items)


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

    @cached_property
    def by_block(self) -> dict:
        """The elements grouped by their order's block, built on first use."""
        index: dict = {}
        for b in self.elements:
            index.setdefault(self.order.block(b), []).append(b)
        return index


def minimize(states: Iterable, order: Wqo, base: Basis = ()) -> Basis:
    """Reduce a finite generating set to the basis of its upward closure.

    Deterministic: duplicates (by canonical key) collapse to their first
    occurrence, elements are examined in (size, key) order, and the
    result is sorted by key.  Of two order-equivalent elements the one
    with the smaller canonical key is kept.

    `base`, a basis of the same order, joins its ideal to the result as
    if its elements came first in `states`, so a base element wins a key
    tie.  It must be an antichain, as every `Basis` from `minimize` is:
    its elements are compared only with kept candidates, never with each
    other.  Each side is checked through an antichain index of its own.
    """
    old = {order.key(b): b for b in base}
    new: dict = {}
    for s in states:
        new.setdefault(order.key(s), s)
    entries = [(k, s, False) for k, s in old.items()]
    entries += [(k, s, True) for k, s in new.items() if k not in old]
    entries.sort(key=lambda e: (order.size(e[1]), e[0]))
    old_index, new_index = order.antichain_index(), order.antichain_index()
    kept = []
    for k, s, fresh in entries:
        if new_index.covers(s) or fresh and old_index.covers(s):
            continue
        (new_index if fresh else old_index).add(s)
        kept.append((k, s))
    kept.sort(key=lambda ks: ks[0])
    return Basis(order, tuple(s for _, s in kept))


def covers(basis: Basis, state) -> bool:
    """Membership of `state` in the ideal generated by `basis`."""
    peers = basis.by_block.get(basis.order.block(state), ())
    return any(basis.order.leq(b, state) for b in peers)


def basis_subset(states: Iterable, basis: Basis) -> bool:
    """True iff every given state lies in the ideal generated by `basis`."""
    return all(covers(basis, s) for s in states)

