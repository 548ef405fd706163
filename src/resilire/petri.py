"""Petri nets: markings, firing, the componentwise order, the one-step
ideal steps in both directions, and the product with a control
automaton.

A marking is a dense tuple of token counts indexed by the net's place
list, optionally extended by a control-automaton state and an owner
marker.  The extra components enter the order as equality constraints,
which keeps it a well-quasi-order because both Q and the marker set are
finite.  Whether they are present is fixed per model, and the order
refuses a marking of another shape.  The ideal steps take a saturation
round's frontier and concatenate the steps of its markings: the merge
drops repeated markings by key.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import BackendMismatch
from .order import FeatureMasks, Wqo

SYSTEM = "sys"
ENVIRONMENT = "env"
START_MARKER = "top"
MARKERS = (START_MARKER, SYSTEM, ENVIRONMENT)


@dataclass(frozen=True)
class Transition:
    name: str
    pre: Tuple[int, ...]
    post: Tuple[int, ...]
    owner: str = SYSTEM


@dataclass(frozen=True)
class PetriNet:
    places: Tuple[str, ...]
    transitions: Tuple[Transition, ...]

    def transition(self, name: str) -> Transition:
        for t in self.transitions:
            if t.name == name:
                return t
        raise KeyError("unknown transition %r" % name)

    def weights(self, mapping: Dict[str, int]) -> Tuple[int, ...]:
        unknown = set(mapping) - set(self.places)
        if unknown:
            raise KeyError("unknown places %s" % sorted(unknown))
        return tuple(int(mapping.get(p, 0)) for p in self.places)


def make_net(places: Iterable[str], transitions) -> PetriNet:
    """Build a net from {name, owner, pre: place->w, post: place->w} specs."""
    places = tuple(places)
    idx = {p: i for i, p in enumerate(places)}
    if len(idx) != len(places):
        raise ValueError("duplicate place names")
    ts = []
    for spec in transitions:
        pre = [0] * len(places)
        post = [0] * len(places)
        for side, vec in (("pre", pre), ("post", post)):
            for p, w in spec.get(side, {}).items():
                if p not in idx:
                    raise KeyError("transition %r uses unknown place %r"
                                   % (spec["name"], p))
                if int(w) < 0:
                    raise ValueError("negative arc weight on %r" % spec["name"])
                vec[idx[p]] = int(w)
        ts.append(Transition(spec["name"], tuple(pre), tuple(post),
                             spec.get("owner", SYSTEM)))
    if len({t.name for t in ts}) != len(ts):
        raise ValueError("duplicate transition names")
    return PetriNet(places, tuple(ts))


@dataclass(frozen=True)
class Marking:
    tokens: Tuple[int, ...]
    state: Optional[str] = None
    marker: Optional[str] = None


def enabled(m: Marking, t: Transition) -> bool:
    return all(have >= need for have, need in zip(m.tokens, t.pre))


def fire(m: Marking, t: Transition) -> Marking:
    if not enabled(m, t):
        raise ValueError("transition %r is not enabled" % t.name)
    toks = tuple(have - need + add
                 for have, need, add in zip(m.tokens, t.pre, t.post))
    return Marking(toks, m.state, m.marker)


def min_enabling_cover(m: Marking, t: Transition) -> Marking:
    """The least marking that is enabled for `t` and whose firing covers `m`.

    Componentwise max(m - post, 0) + pre: the standard backward
    coverability step for Petri nets.
    """
    toks = tuple(max(have - add, 0) + need
                 for have, add, need in zip(m.tokens, t.post, t.pre))
    return Marking(toks, m.state, m.marker)


def least_successor(m: Marking, t: Transition) -> Marking:
    """The least marking that firing `t` reaches from above `m`.

    Fire t at max(m, pre), giving max(m - pre, 0) + post: the forward
    counterpart of `min_enabling_cover`.
    """
    toks = tuple(max(have - need, 0) + add
                 for have, need, add in zip(m.tokens, t.pre, t.post))
    return Marking(toks, m.state, m.marker)


def meet(p: Marking, q: Marking) -> List[Marking]:
    """The least marking above both, the componentwise max, where a None
    state or marker matches any; none when their states or markers clash."""
    if any(None not in (a, b) and a != b
           for a, b in ((p.state, q.state), (p.marker, q.marker))):
        return []
    return [Marking(tuple(map(max, p.tokens, q.tokens)),
                    q.state if p.state is None else p.state,
                    q.marker if p.marker is None else p.marker)]


class VectorOrder(Wqo):
    """Componentwise order on markings with equality on state/marker.

    The order is fixed to one shape of marking: `has_state` and
    `has_marker` say whether its markings carry a control state and an
    owner marker; every method refuses a marking of another shape.
    Markings that differ in state or marker are never comparable, so its
    antichain index keeps one `FeatureMasks` per (state, marker) pair.
    Its key is the marking itself: it names order classes, and the
    tuple order of keys extends the componentwise order.
    """

    def __init__(self, dimension: int, has_state: bool = False,
                 has_marker: bool = False):
        self.dimension = dimension
        self._no_state = not has_state
        self._no_marker = not has_marker

    def _check(self, m: Marking):
        if not isinstance(m, Marking) or len(m.tokens) != self.dimension:
            raise BackendMismatch("not a marking of dimension %d" % self.dimension)
        if ((m.state is None) is not self._no_state
                or (m.marker is None) is not self._no_marker):
            raise BackendMismatch(
                "state/marker presence of %r does not fit this order's markings,"
                " which carry %s control state and %s marker"
                % (m, "no" if self._no_state else "a", "no" if self._no_marker else "a"))

    def leq(self, a: Marking, b: Marking) -> bool:
        self._check(a)
        self._check(b)
        return (a.state == b.state and a.marker == b.marker
                and all(map(le, a.tokens, b.tokens)))

    def key(self, a: Marking):
        self._check(a)
        return (a.state or "", a.marker or "", a.tokens)

    def antichain_index(self) -> "_TokenMasks":
        return _TokenMasks(self)


class _TokenMasks:
    """Antichain index of `VectorOrder`: `FeatureMasks` over the
    coordinates per (state, marker, dimension) group, the markings that
    compare.  A marking's shape is checked only when no group fits it,
    and a group exists only after a checked `add`."""

    def __init__(self, order: VectorOrder):
        self._order = order
        self._groups: dict = {}

    def _group(self, m: Marking) -> Optional[FeatureMasks]:
        group = (self._groups.get((m.state, m.marker, len(m.tokens)))
                 if isinstance(m, Marking) else None)
        if group is None:
            self._order._check(m)
        return group

    def add(self, m: Marking) -> None:
        group = self._group(m) or self._groups.setdefault(
            (m.state, m.marker, len(m.tokens)), FeatureMasks(range(len(m.tokens))))
        group.hold(m, m.tokens)

    def remove(self, m: Marking) -> None:
        self._groups[m.state, m.marker, len(m.tokens)].remove(m)

    def covers(self, m: Marking) -> bool:
        group = self._group(m)
        return group is not None and group.at_most(m.tokens) != 0

    def above(self, m: Marking) -> List[Marking]:
        group = self._group(m)
        return [] if group is None else list(group.elements(group.at_least(m.tokens)))


class PetriBackend:
    """A plain net as a transition system over bare markings."""

    def __init__(self, net: PetriNet):
        self.net = net
        self.order = VectorOrder(len(net.places))

    meet = staticmethod(meet)

    def complete(self, pattern: Marking) -> List[Marking]:
        return [pattern]

    def post_step(self, m: Marking) -> List[Marking]:
        return list({fire(m, t) for t in self.net.transitions if enabled(m, t)})

    def pre_basis(self, frontier) -> List[Marking]:
        return [min_enabling_cover(m, t) for m in frontier for t in self.net.transitions]

    def post_basis(self, frontier) -> List[Marking]:
        return [least_successor(m, t) for m in frontier for t in self.net.transitions]


class ProductBackend:
    """A net synchronized with a control automaton.

    States are (tokens, q) or (tokens, q, marker).  A step exists for an
    automaton edge (q, q') and a selected transition t enabled in the
    marking; when `annotate` is set the target's marker is the owner of
    t, and steps accept any marker on the left (so the start marker is
    lost after the first step).
    """

    def __init__(self, net: PetriNet, automaton, annotate: bool = False):
        self.net = net
        self.automaton = automaton
        self.annotate = annotate
        self.order = VectorOrder(len(net.places), has_state=True,
                                 has_marker=annotate)
        by_name = {t.name: t for t in net.transitions}
        self._out: Dict[str, List[Tuple[str, Transition]]] = {}
        self._into: Dict[str, List[Tuple[str, Transition]]] = {}
        for edge in automaton.edges:
            for name in edge.select:
                if name not in by_name:
                    raise KeyError("automaton selects unknown transition %r" % name)
                self._out.setdefault(edge.src, []).append((edge.dst, by_name[name]))
                self._into.setdefault(edge.dst, []).append((edge.src, by_name[name]))

    meet = staticmethod(meet)

    def complete(self, pattern: Marking) -> List[Marking]:
        """`pattern` in each automaton state and, when annotated, with
        each marker, where it leaves them open."""
        states = ([pattern.state] if pattern.state is not None
                  else sorted(self.automaton.states))
        markers = ([pattern.marker] if pattern.marker is not None
                   else sorted(MARKERS) if self.annotate else [None])
        return [Marking(pattern.tokens, q, mk) for q in states for mk in markers]

    def _state(self, m: Marking) -> str:
        """m's automaton state; refuses m unless the product has it."""
        if m.state not in self.automaton.states:
            raise BackendMismatch("unknown automaton state %r" % m.state)
        if self.annotate and m.marker not in MARKERS:
            raise BackendMismatch("missing or unknown marker %r" % m.marker)
        return m.state

    def _target(self, tokens, dst: str, t: Transition) -> Marking:
        return Marking(tokens, dst, t.owner if self.annotate else None)

    def post_step(self, m: Marking) -> List[Marking]:
        return list({self._target(fire(m, t).tokens, dst, t)
                     for dst, t in self._out.get(self._state(m), ()) if enabled(m, t)})

    def post_basis(self, frontier) -> List[Marking]:
        return [self._target(least_successor(m, t).tokens, dst, t)
                for m in frontier for dst, t in self._out.get(self._state(m), ())]

    def pre_basis(self, frontier) -> List[Marking]:
        markers = MARKERS if self.annotate else (None,)
        return [Marking(min_enabling_cover(m, t).tokens, src, mk)
                for m in frontier for src, t in self._into.get(self._state(m), ())
                if not self.annotate or m.marker == t.owner
                for mk in markers]
