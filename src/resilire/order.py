"""Well-quasi-order primitives: antichains, ideal bases, coverage tests.

An upward-closed set of states (an ideal) is represented by its finite
basis: the antichain of minimal elements, kept in a canonical order so
that every computation over bases is reproducible byte for byte.
Downward-closed sets have no useful finite basis and are handled
elsewhere as membership predicates.

An `Antichain` is a basis kept live across merges in one antichain
index (`Wqo.antichain_index`) that lives as long as the antichain, so a
saturation never rebuilds its previous basis.  An index answers
`covers`, is a state in the ideal, and `above`, which of its states lie
above a state: a merge asks `covers` of each candidate and evicts what
`above` gives for each one it keeps.  A query behind a saturation's
last round indexes its own targets and asks `above` of each birth.  The
default index scans with the order; markings and graphs answer from
`FeatureMasks` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class Wqo:
    """A decidable well-quasi-order plus a canonical state encoding.

    Subclasses provide:

    * ``leq(a, b)`` -- reflexive, transitive, decidable;
    * ``key(a)``    -- total canonical encoding that names the
      order-equivalence class: ``key(a) == key(b)`` exactly when
      ``leq(a, b) and leq(b, a)``, and ``key(a) < key(b)`` when only
      ``leq(a, b)`` holds.  A merge in any order keeps the minimal
      elements; in key order it adds no candidate that a later one evicts;
    * ``any_below(elements, s)`` -- optional: whether some given
      element ``t`` has ``leq(t, s)``.  An order may prepare ``s`` once
      for all of them;
    * ``antichain_index()`` -- optional: a fresh, empty index of a set
      of states, with ``add(s)``, ``remove(s)`` for a state added
      before, ``covers(s)``, whether an added state lies below ``s``,
      and ``above(s)``, a list of the added ``t`` with ``leq(s, t)``.
      The default scans them.
    """

    def leq(self, a, b) -> bool:
        raise NotImplementedError

    def key(self, a):
        raise NotImplementedError

    def any_below(self, elements: Iterable, s) -> bool:
        return any(self.leq(t, s) for t in elements)

    def antichain_index(self):
        return _ScanIndex(self)


class _ScanIndex:
    """The default antichain index: the added states, by identity, in
    the order they came, scanned with the order's `any_below` and `leq`."""

    def __init__(self, order: Wqo):
        self._order = order
        self._items: dict = {}

    def add(self, s) -> None:
        self._items[id(s)] = s

    def remove(self, s) -> None:
        del self._items[id(s)]

    def covers(self, s) -> bool:
        return self._order.any_below(self._items.values(), s)

    def above(self, s) -> list:
        return [t for t in self._items.values() if self._order.leq(s, t)]


class FeatureMasks:
    """Bitmasks for an order in which `t` lies below `s` only if `s` has
    at least `t`'s count, `counts[f]`, of every feature f; f needs a row
    (`rows[f] = []`) before a held element counts it.  Each held element
    has the lowest free slot, and `rows[f][v]` has bit j set when slot j
    holds at most v of f, its complement when it holds more.  A count
    past a row's end bounds nothing below and leaves nothing above."""

    __slots__ = ("rows", "slots", "held", "occupied")

    def __init__(self, features: Iterable = ()):
        self.rows: dict = {f: [] for f in features}
        self.slots: dict = {}
        self.held: dict = {}
        self.occupied = 0

    def hold(self, element, counts) -> None:
        bit = ~self.occupied & (self.occupied + 1)
        self.slots[id(element)] = j = bit.bit_length() - 1
        self.held[j] = element
        clear = ~bit
        for f, row in self.rows.items():
            v = counts[f]
            if v >= len(row):
                # every held slot holds at most v of f
                row.extend([self.occupied] * (v + 1 - len(row)))
            for u in range(v):
                row[u] &= clear
            for u in range(v, len(row)):
                row[u] |= bit
        self.occupied |= bit

    def remove(self, element) -> None:
        """Free the slot: queries start from `occupied`, and reuse resets its bits."""
        j = self.slots.pop(id(element))
        del self.held[j]
        self.occupied &= ~(1 << j)

    def at_most(self, counts) -> int:
        """The bits of the held slots with at most `counts`."""
        mask = self.occupied
        for f, row in self.rows.items():
            v = counts[f]
            if v < len(row):
                mask &= row[v]
                if not mask:
                    return 0
        return mask

    def at_least(self, counts) -> int:
        """The bits of the held slots with at least `counts`."""
        mask = self.occupied
        for f, row in self.rows.items():
            v = counts[f]
            if v:
                mask &= ~row[v - 1] if v <= len(row) else 0
                if not mask:
                    return 0
        return mask

    def elements(self, mask: int) -> Iterator:
        """The held elements of the slots whose bits `mask` has."""
        while mask:
            low = mask & -mask
            yield self.held[low.bit_length() - 1]
            mask ^= low


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


class Antichain:
    """The minimal elements of a growing ideal, starting from `base`,
    which must be an antichain, as every `Basis` is.

    The elements are kept by key and in one antichain index for the
    antichain's whole life: two of them are never compared with each
    other, and none is keyed or indexed again.  `covers` asks the index;
    `evicted` lists the elements that the last merge evicted.
    """

    def __init__(self, order: Wqo, base: Iterable = ()):
        self.order, self.evicted = order, []
        self._index = order.antichain_index()
        self._elements = {order.key(b): b for b in base}
        for b in self._elements.values():
            self._index.add(b)

    def merge(self, candidates: Iterable) -> list:
        """Join the candidates' ideal to the antichain's; return the
        candidates that became elements, sorted by key.

        A candidate under a key already present is dropped uncompared;
        of repeats, the first stays.  The rest go in key order, so each
        comes after the candidates below it.  One that an element lies
        below is dropped; any other evicts the elements above it, none
        of them candidates, and becomes an element.
        """
        order, elements, index = self.order, self._elements, self._index
        new: dict = {}
        for c in candidates:
            k = order.key(c)
            if k not in elements:
                new.setdefault(k, c)
        ordered = sorted(new.items())
        evicted = self.evicted = []
        for k, c in ordered:
            if index.covers(c):
                continue
            for t in index.above(c):
                index.remove(t)
                del elements[order.key(t)]
                evicted.append(t)
            index.add(c)
            elements[k] = c
        return [c for k, c in ordered if elements.get(k) is c]

    def covers(self, s) -> bool:
        """Membership of `s` in the antichain's ideal."""
        return self._index.covers(s)

    def basis(self) -> Basis:
        elements = self._elements
        return Basis(self.order, tuple(elements[k] for k in sorted(elements)))


def minimize(states: Iterable, order: Wqo) -> Basis:
    """Reduce a finite generating set to the basis of its upward closure.

    Deterministic: duplicates (by canonical key) collapse to their first
    occurrence, elements are examined and the result sorted in key
    order: one `Antichain.merge` into an empty antichain.
    """
    live = Antichain(order)
    live.merge(states)
    return live.basis()


def covers(basis: Basis, state) -> bool:
    """Membership of `state` in the ideal generated by `basis`.  Encoding
    the state first refuses one of the wrong shape, even for an empty basis."""
    basis.order.key(state)
    return basis.order.any_below(basis.elements, state)


def basis_subset(states: Iterable, basis: Basis) -> bool:
    """True iff every given state lies in the ideal generated by `basis`."""
    return all(covers(basis, s) for s in states)
