"""Backend-independent resilience engine.

The decision procedure is backward ideal saturation: starting from the
basis of the safety ideal I_0, round k+1 builds the basis of
I_{k+1} = I_k union pre(I_k).  The sequence of ideals is monotone and,
over a well-quasi-order, eventually stationary, so saturation
terminates; a configurable iteration guard additionally bounds every
loop and reports a distinct 'exhausted' outcome when it trips.

Rounds are frontier-only.  An element of round k's basis that was
already in round k-1's has its predecessors in I_k, so round k+1 merges
the one-step basis of the *fresh* elements of round k alone into round
k's basis.  That basis is one `Antichain` for the whole saturation:
each merge asks its index whether a candidate is covered and, for each
one kept, which elements it evicts, and returns exactly the fresh
elements of the next round.  Each basis element is stepped exactly
once, in one step call per round for all the fresh elements, in which
a graph step filters and copies each isomorphism class once.  A round
without fresh elements has the previous round's ideal: the fixed point.
`backward_step` keeps the full one-step operator.

One backward saturation serves all queries on a backend and safety
basis: its ledger records each round's births and evictions, and grows
only when a query walks past its last round.  A query at that round
asks the live antichain, one behind it a rank index: a state's rank,
the first round whose ideal holds it, is the birth round of the first
element kept below it.  A model keeps all it kept until it is dropped.

Recovery bounds: the minimal-step search returns the least k such that
every bad state that the system can reach lies within k backward steps
of safety, or 'unbounded' when saturation settles first.  When no basis
of the reachable states is supplied the same bound is approximated from
below by bounded forward exploration and from above by forward ideal
saturation: the same round loop, on a ledger of its own and driven by
each backend's one-step successor basis of an upward closure
(`post_basis`), saturates the start's upward closure forwards.  Both
bounds are then read off the shared backward saturation.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from .errors import GuardExceeded, SaturationExhausted
from .limits import DEFAULT_LIMITS, Limits
from .order import Antichain, Basis, minimize

INFINITY = math.inf

FOUND = "found"
UNBOUNDED = "unbounded"
EXHAUSTED = "exhausted"

_LEDGERS = weakref.WeakKeyDictionary()  # backend -> {safe basis keys: ledger}


@dataclass(frozen=True)
class ResilienceInstance:
    """One resilience question, ready for the engine.

    backend provides the order and the backward step; reachable is a
    basis of the upward closure of the reachable states; bad is the
    decidable downward-closed bad condition; safe is the basis of the
    safety ideal.
    """

    backend: object
    reachable: Basis
    bad: object
    safe: Basis
    max_iters: int = DEFAULT_LIMITS.max_iters


@dataclass(frozen=True)
class Verdict:
    """A decision; `reason` says which guard tripped, for `exhausted` only."""

    kind: str
    k_min: Optional[int]
    iterations: int
    trace: Optional[Tuple[Basis, ...]] = None
    reason: Optional[str] = None


def backward_step(current: Basis, safe: Basis, backend) -> Basis:
    """Basis of (safety ideal) union (one-step predecessors of `current`).

    The full one-step operator; saturation itself only steps the fresh
    elements of each round and yields the same bases.
    """
    live = Antichain(backend.order, safe)
    live.merge(backend.pre_basis(current.elements))
    return live.basis()


class _Ledger:
    """The rounds of one saturation so far: each round's fresh elements
    (`births`; round 0's are the seed basis), the elements its merge
    evicted (`evictions`) and the `live` antichain of the last round."""

    def __init__(self, seed: Basis):
        self.live = Antichain(seed.order, seed)
        self.births, self.evictions = [seed.elements], [[]]
        self._ranks, self._ranked = None, 0

    def extend(self, step) -> None:
        """Merge `step` of the last births into a new round; a trip adds none."""
        self.births.append(self.live.merge(step(self.births[-1])))
        self.evictions.append(self.live.evicted)

    def rank(self, s):
        """The first round so far whose ideal holds `s`, else INFINITY: the
        birth round of the first element kept below `s` in a rank index."""
        index, round_of = self._ranks = self._ranks or (
            self.live.order.antichain_index(), {})
        for k in range(self._ranked, len(self.births)):
            for b in self.births[k]:
                index.add(b)
                round_of[b] = k
        self._ranked = len(self.births)
        t = next(index.below(s), None)
        return INFINITY if t is None else round_of[t]

    def bases(self) -> Iterator[Basis]:
        """Each round's basis in turn, rebuilt from births and evictions."""
        order, held = self.live.order, {}
        for born, evicted in zip(self.births, self.evictions):
            for t in evicted:
                del held[order.key(t)]
            held.update((order.key(b), b) for b in born)
            yield Basis(order, tuple(held[x] for x in sorted(held)))


def _rounds(ledger: _Ledger, step, max_iters: int):
    """Yield (k, ledger, stable) for k = 0, 1, ..., extending the ledger by
    `step` when k passes its last round, until `stable`: the first round
    without fresh elements.  Raises SaturationExhausted past `max_iters`."""
    for k in range(max(max_iters, 0) + 1):
        if k == len(ledger.births):
            ledger.extend(step)
        stable = k > 0 and not ledger.births[k]
        yield k, ledger, stable
        if stable:
            return
    raise SaturationExhausted("no fixed point within %d rounds" % max_iters)


def _backward(safe: Basis, backend, max_iters: int):
    """The rounds from `safe` on the backend's ledger for it."""
    ledgers = _LEDGERS.setdefault(backend, {})
    key = tuple(map(backend.order.key, safe.elements))
    ledger = ledgers.get(key) or ledgers.setdefault(key, _Ledger(safe))
    return _rounds(ledger, backend.pre_basis, max_iters)


def _cover(target_lists, rounds, trace: Optional[List[Basis]] = None):
    """Walk saturation rounds until each list of targets lies in a
    round's ideal.

    Returns (found, k, error): found[i] is the first round whose ideal
    holds target_lists[i], or None if the walk ended before that, at
    the fixed point or because a guard tripped.  k is the last round
    walked (for a trip, the last completed one) and error the guard's
    exception, else None.  `trace` collects every round's basis.
    """
    found: List[Optional[int]] = [None] * len(target_lists)
    k, error, ranks = 0, None, {}
    try:
        for k, ledger, stable in rounds:
            if k == len(ledger.births) - 1:
                inside = ledger.live.covers
            else:  # behind the ledger: the rank index answers
                ranks = ranks or {id(t): ledger.rank(t) for ts in target_lists for t in ts}
                inside = lambda t, k=k: ranks[id(t)] <= k
            for i, targets in enumerate(target_lists):
                if found[i] is None and all(map(inside, targets)):
                    found[i] = k
            if stable or None not in found:
                break
    except (SaturationExhausted, GuardExceeded) as exc:
        error = exc
    if trace is not None:
        trace.extend(itertools.islice(ledger.bases(), k + 1))
    return found, k, error


def min_recovery(inst: ResilienceInstance, keep_trace: bool = False) -> Verdict:
    """Least k with every reachable bad state k-step recoverable.

    Returns Verdict(found, k), Verdict(unbounded) when saturation
    settles before the reachable bad states are covered, or
    Verdict(exhausted) when the iteration guard or a backend's size
    guard trips; its iteration count is the last completed round and its
    reason the guard's message.
    """
    targets = [b for b in inst.reachable.elements if inst.bad.contains(b)]
    trace: Optional[List[Basis]] = [] if keep_trace else None
    (k_min,), k, error = _cover(
        [targets], _backward(inst.safe, inst.backend, inst.max_iters), trace)
    kind = FOUND if k_min is not None else UNBOUNDED if error is None else EXHAUSTED
    return Verdict(kind, k_min, k, tuple(trace) if keep_trace else None,
                   None if error is None else str(error))


def pre_star(safe: Basis, backend, max_iters: int = DEFAULT_LIMITS.max_iters,
             keep_trace: bool = False):
    """Saturate to the basis of all states that can ever reach the ideal.

    Returns (basis, index) where index is the first round from which the
    sequence of ideals is stationary; with keep_trace also the list of
    per-round bases.
    """
    for k, ledger, _stable in _backward(safe, backend, max_iters):
        pass
    # the walk ends at the fixed point, which holds the previous basis
    found = (ledger.live.basis(), k - 1)
    return found + (list(ledger.bases()),) if keep_trace else found


def _recovery_bounds(state_lists, bad, safe: Basis, backend, max_iters: int) -> list:
    """`recovery_bound` of each list of states, from one backward
    saturation that runs until every list is answered.  A guard trip
    before that raises."""
    target_lists = [[s for s in states if bad.contains(s)] for states in state_lists]
    found, _k, error = _cover(target_lists, _backward(safe, backend, max_iters))
    if error is not None:
        raise error
    return [INFINITY if k is None else k for k in found]


def recovery_bound(states, bad, safe: Basis, backend,
                   max_iters: int = DEFAULT_LIMITS.max_iters):
    """Least k covering the bad part of `states` in k rounds, else inf.

    The bad part may be replaced by the antichain of its minimal
    elements without changing the answer (coverage only consults the
    upward closure against a downward-closed filter).  A guard trip
    raises.
    """
    return _recovery_bounds([states], bad, safe, backend, max_iters)[0]


def forward_states(start, backend, depth: int,
                   limits: Limits = DEFAULT_LIMITS) -> List[list]:
    """Breadth-first layers post^0 .. post^depth, deduplicated globally.

    Layer j holds the states first reached in exactly j steps, in key
    order (`post_step` is unordered); the union over layers is all
    states reachable within `depth` steps.
    """
    if depth > limits.forward_depth_cap:
        raise SaturationExhausted(
            "depth %d exceeds the forward depth cap %d"
            % (depth, limits.forward_depth_cap))
    key = backend.order.key
    seen = {key(start)}
    layers = [[start]]
    for _ in range(depth):
        frontier = []
        for s in layers[-1]:
            for nxt in backend.post_step(s):
                k = key(nxt)
                if k not in seen:
                    seen.add(k)
                    frontier.append(nxt)
                    if len(seen) > limits.forward_state_cap:
                        raise SaturationExhausted(
                            "more than %d states reached forward"
                            % limits.forward_state_cap)
        layers.append(sorted(frontier, key=key))
    return layers


def approx_bounds(start, bad, safe: Basis, backend, depth: Optional[int] = None,
                  over: bool = False, limits: Limits = DEFAULT_LIMITS) -> tuple:
    """(k_under, k_over) from one backward saturation; each is None
    unless asked for, by a forward `depth` or by `over`.

    See `underapprox_bound` and `overapprox_bound` for what they bound.
    """
    asked = []
    if depth is not None:
        layers = forward_states(start, backend, depth, limits)
        asked.append(minimize([s for layer in layers for s in layer],
                              backend.order).elements)
    if over:
        closure = _Ledger(minimize([start], backend.order))
        for _ in _rounds(closure, backend.post_basis, limits.max_iters):
            pass
        asked.append(closure.live.basis().elements)
    bounds = iter(_recovery_bounds(asked, bad, safe, backend, limits.max_iters))
    return (next(bounds) if depth is not None else None,
            next(bounds) if over else None)


def underapprox_bound(start, depth: int, bad, safe: Basis, backend,
                      limits: Limits = DEFAULT_LIMITS):
    """Recovery bound over the states reachable within `depth` steps.

    A lower bound on the true k; nondecreasing in `depth` and eventually
    exact.  The forward set is minimized to an antichain first.
    """
    return approx_bounds(start, bad, safe, backend, depth=depth, limits=limits)[0]


def overapprox_bound(start, bad, safe: Basis, backend,
                     limits: Limits = DEFAULT_LIMITS):
    """Recovery bound over everything reachable from above the start.

    Saturates the start's upward closure forwards through the backend's
    `post_basis`; the fixed point covers every reachable state, so the
    result is an upper bound on the true k.
    """
    return approx_bounds(start, bad, safe, backend, over=True, limits=limits)[1]
