"""Petri nets: markings, firing, the componentwise order, the one-step
ideal steps in both directions, and the product with a control
automaton.

A marking is a dense tuple of token counts indexed by the net's place
list, optionally extended by a control-automaton state and an owner
marker.  The extra components enter the order as equality constraints,
which keeps it a well-quasi-order because both Q and the marker set are
finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import BackendMismatch
from .order import Basis, Wqo, minimize

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


def enabled(net: PetriNet, m: Marking, t: Transition) -> bool:
    return all(have >= need for have, need in zip(m.tokens, t.pre))


def fire(net: PetriNet, m: Marking, t: Transition) -> Marking:
    if not enabled(net, m, t):
        raise ValueError("transition %r is not enabled" % t.name)
    toks = tuple(have - need + add
                 for have, need, add in zip(m.tokens, t.pre, t.post))
    return Marking(toks, m.state, m.marker)


def leq_marking(a: Marking, b: Marking) -> bool:
    """Componentwise token order; control state and marker must agree."""
    if len(a.tokens) != len(b.tokens):
        raise BackendMismatch("markings of different dimension")
    if (a.state is None) != (b.state is None) or (a.marker is None) != (b.marker is None):
        raise BackendMismatch("markings disagree on state/marker presence")
    if a.state != b.state or a.marker != b.marker:
        return False
    return all(x <= y for x, y in zip(a.tokens, b.tokens))


def min_enabling_cover(net: PetriNet, m: Marking, t: Transition) -> Marking:
    """The least marking that is enabled for `t` and whose firing covers `m`.

    Componentwise max(m - post, 0) + pre: the standard backward
    coverability step for Petri nets.
    """
    toks = tuple(max(have - add, 0) + need
                 for have, add, need in zip(m.tokens, t.post, t.pre))
    return Marking(toks, m.state, m.marker)


def least_successor(net: PetriNet, m: Marking, t: Transition) -> Marking:
    """The least marking that firing `t` reaches from above `m`.

    Fire t at max(m, pre), giving max(m - pre, 0) + post: the forward
    counterpart of `min_enabling_cover`.
    """
    toks = tuple(max(have - need, 0) + add
                 for have, need, add in zip(m.tokens, t.pre, t.post))
    return Marking(toks, m.state, m.marker)


class VectorOrder(Wqo):
    """Componentwise order on markings with equality on state/marker."""

    def __init__(self, dimension: int):
        self.dimension = dimension

    def _check(self, m: Marking):
        if not isinstance(m, Marking) or len(m.tokens) != self.dimension:
            raise BackendMismatch("not a marking of dimension %d" % self.dimension)

    def leq(self, a: Marking, b: Marking) -> bool:
        self._check(a)
        self._check(b)
        return leq_marking(a, b)

    def key(self, a: Marking):
        self._check(a)
        return (a.state or "", a.marker or "", a.tokens)

    def size(self, a: Marking) -> int:
        return sum(a.tokens)


class PetriBackend:
    """A plain net as a transition system over bare markings."""

    kind = "petri"

    def __init__(self, net: PetriNet):
        self.net = net
        self.order = VectorOrder(len(net.places))

    def post_step(self, m: Marking) -> List[Marking]:
        out = []
        for t in self.net.transitions:
            if enabled(self.net, m, t):
                out.append(fire(self.net, m, t))
        return sorted(set(out), key=self.order.key)

    def pre_basis(self, m: Marking) -> List[Marking]:
        return sorted({min_enabling_cover(self.net, m, t)
                       for t in self.net.transitions}, key=self.order.key)

    def post_basis(self, m: Marking) -> List[Marking]:
        return sorted({least_successor(self.net, m, t)
                       for t in self.net.transitions}, key=self.order.key)

    def basis(self, markings) -> Basis:
        return minimize(markings, self.order)


class ProductBackend:
    """A net synchronized with a control automaton.

    States are (tokens, q) or (tokens, q, marker).  A step exists for an
    automaton edge (q, q') and a selected transition t enabled in the
    marking; when `annotate` is set the target's marker is the owner of
    t, and steps accept any marker on the left (so the start marker is
    lost after the first step).
    """

    kind = "petri-product"

    def __init__(self, net: PetriNet, automaton, annotate: bool = False):
        self.net = net
        self.automaton = automaton
        self.annotate = annotate
        self.order = VectorOrder(len(net.places))
        self._by_name = {t.name: t for t in net.transitions}
        for edge in automaton.edges:
            for name in edge.select:
                if name not in self._by_name:
                    raise KeyError("automaton selects unknown transition %r" % name)

    def _check_state(self, m: Marking):
        if m.state not in self.automaton.states:
            raise BackendMismatch("unknown automaton state %r" % m.state)
        if self.annotate and m.marker not in MARKERS:
            raise BackendMismatch("missing or unknown marker %r" % m.marker)

    def _steps_from(self, m: Marking):
        for edge in self.automaton.edges:
            if edge.src != m.state:
                continue
            for name in edge.select:
                yield edge, self._by_name[name]

    def _target(self, tokens, edge, t: Transition) -> Marking:
        return Marking(tokens, edge.dst, t.owner if self.annotate else None)

    def post_step(self, m: Marking) -> List[Marking]:
        self._check_state(m)
        return sorted({self._target(fire(self.net, m, t).tokens, edge, t)
                       for edge, t in self._steps_from(m)
                       if enabled(self.net, m, t)}, key=self.order.key)

    def post_basis(self, m: Marking) -> List[Marking]:
        self._check_state(m)
        return sorted({self._target(least_successor(self.net, m, t).tokens, edge, t)
                       for edge, t in self._steps_from(m)}, key=self.order.key)

    def pre_basis(self, m: Marking) -> List[Marking]:
        self._check_state(m)
        markers = MARKERS if self.annotate else (None,)
        out = set()
        for edge in self.automaton.edges:
            if edge.dst != m.state:
                continue
            for name in edge.select:
                t = self._by_name[name]
                if self.annotate and m.marker != t.owner:
                    continue
                cover = min_enabling_cover(self.net, m, t)
                for mk in markers:
                    out.add(Marking(cover.tokens, edge.src, mk))
        return sorted(out, key=self.order.key)

    def basis(self, markings) -> Basis:
        return minimize(markings, self.order)
