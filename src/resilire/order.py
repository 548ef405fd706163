"""Well-quasi-order primitives: antichains, ideal bases, coverage tests.

An upward-closed set of states (an ideal) is represented by its finite
basis: the antichain of minimal elements, kept in a canonical order so
that every computation over bases is reproducible byte for byte.
Downward-closed sets have no useful finite basis and are handled
elsewhere as membership predicates.

An `Antichain` is a basis kept live across merges: each merge compares
the new candidates with each other and with the live elements through
one antichain index (`Wqo.antichain_index`) that lives as long as the
antichain, so a saturation never rebuilds its previous basis.  The one
question asked of an index, a basis or an antichain is `covers`: is
this state in the ideal?  The default index scans with the order's
`any_below`; an order may answer from a structure of its own instead
(markings: one bitmask per coordinate and token count).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator


class Wqo:
    """A decidable well-quasi-order plus a canonical state encoding.

    Subclasses provide:

    * ``leq(a, b)`` -- reflexive, transitive, decidable;
    * ``key(a)``    -- total canonical encoding that names the
      order-equivalence class: ``key(a) == key(b)`` exactly when
      ``leq(a, b) and leq(b, a)``;
    * ``size(a)``   -- cheap monotone proxy: ``leq(a, b)`` implies
      ``size(a) <= size(b)``, with equality only when the states are
      order-equivalent.  Minimization sorts on it so that potential
      dominators are always seen before the states they dominate;
    * ``any_below(elements, s)`` -- optional: whether some given
      element ``t`` has ``leq(t, s)``.  An order may prepare ``s`` once
      for all of them;
    * ``antichain_index()`` -- optional: a fresh, empty index with
      ``add(s)``, ``remove(s)`` for a state added before, and
      ``covers(s)``, whether an added state lies below ``s``.  The
      default scans the added states with ``any_below``.
    """

    def leq(self, a, b) -> bool:
        raise NotImplementedError

    def key(self, a):
        raise NotImplementedError

    def size(self, a) -> int:
        raise NotImplementedError

    def any_below(self, elements: Iterable, s) -> bool:
        return any(self.leq(t, s) for t in elements)

    def antichain_index(self):
        return _ScanIndex(self)


class _ScanIndex:
    """The default antichain index: the added states, by identity, in
    the order they came, scanned with the order's `any_below`."""

    def __init__(self, order: Wqo):
        self._order = order
        self._items: dict = {}

    def add(self, s) -> None:
        self._items[id(s)] = s

    def remove(self, s) -> None:
        del self._items[id(s)]

    def covers(self, s) -> bool:
        return self._order.any_below(self._items.values(), s)


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

    The elements are kept with their sizes and keys, sorted by (size,
    key), and in one antichain index for the antichain's whole life:
    two of them are never compared with each other, and none is keyed
    or indexed again.  `covers` asks that index.
    """

    def __init__(self, order: Wqo, base: Iterable = ()):
        self.order = order
        self._index = order.antichain_index()
        self._sweep = sorted(((order.size(b), order.key(b), b) for b in base),
                             key=_size_key)
        self._keys = {k for _n, k, _b in self._sweep}
        for _n, _k, b in self._sweep:
            self._index.add(b)

    def merge(self, candidates: Iterable) -> list:
        """Join the candidates' ideal to the antichain's; return the
        candidates that became elements, sorted by key.

        A candidate under a key already present is dropped uncompared;
        of repeats, the first stays.  The rest and the elements are
        swept together in (size, key) order, so everything below a state
        comes before it: keys name order classes, so a state below
        another of equal size has its key.  A candidate is kept unless a
        kept candidate or an element lies below it.  An element that a
        kept candidate lies below is removed when the sweep reaches it,
        before any later candidate is compared with it.
        """
        order, keys = self.order, self._keys
        new: dict = {}
        for c in candidates:
            k = order.key(c)
            if k not in keys:
                new.setdefault(k, c)
        entries = self._sweep + [(order.size(c), k, c) for k, c in new.items()]
        entries.sort(key=_size_key)
        fresh = order.antichain_index()
        sweep, kept = [], []
        for entry in entries:
            _n, k, s = entry
            if k not in new:
                if kept and fresh.covers(s):
                    keys.remove(k)
                    self._index.remove(s)
                    continue
            elif fresh.covers(s) or self._index.covers(s):
                continue
            else:
                fresh.add(s)
                kept.append(entry)
            sweep.append(entry)
        self._sweep = sweep
        for _n, k, c in kept:
            keys.add(k)
            self._index.add(c)
        return [c for _n, _k, c in sorted(kept, key=_key)]

    def covers(self, s) -> bool:
        """Membership of `s` in the antichain's ideal."""
        return self._index.covers(s)

    def basis(self) -> Basis:
        return Basis(self.order, tuple(b for _n, _k, b in sorted(self._sweep, key=_key)))


# Sort keys of the (size, key, state) entries of an `Antichain`.
_size_key, _key = itemgetter(0, 1), itemgetter(1)


def minimize(states: Iterable, order: Wqo) -> Basis:
    """Reduce a finite generating set to the basis of its upward closure.

    Deterministic: duplicates (by canonical key) collapse to their first
    occurrence, elements are examined in (size, key) order, and the
    result is sorted by key: one `Antichain.merge` into an empty antichain.
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
