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
Targets are looked up in the live antichain; a `Basis` is built only
to be reported.  `backward_step` keeps the full one-step operator.

Recovery bounds: the minimal-step search returns the least k such that
every bad state that the system can reach lies within k backward steps
of safety, or 'unbounded' when saturation settles first.  When no basis
of the reachable states is supplied the same bound is approximated from
below by bounded forward exploration and from above by forward ideal
saturation: the same round loop, driven by each backend's one-step
successor basis of an upward closure (`post_basis`), saturates the
start's upward closure forwards.  Both bounds are then read off one
backward saturation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import GuardExceeded, SaturationExhausted
from .limits import DEFAULT_LIMITS, Limits
from .order import Antichain, Basis, minimize

INFINITY = math.inf

FOUND = "found"
UNBOUNDED = "unbounded"
EXHAUSTED = "exhausted"


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


def _saturation(seed: Basis, step, order, max_iters: int):
    """Yield (k, live, stable) starting at k=0, where `live` is the one
    `Antichain` of the saturation, holding round k's basis until the
    next round is asked for.

    Round k+1 is the basis of round k's ideal together with the ideal
    of `step(fresh)`, one call for the fresh elements of round k: those
    that the merge into round k-1's antichain kept (all of round 0).
    `stable` marks the first round without fresh elements, which is the
    fixed point; iteration stops after yielding it.  A step may drop
    repeats within its call; the merge drops the rest.
    Raises SaturationExhausted when the guard trips first.
    """
    live, fresh = Antichain(order, seed), seed.elements
    yield 0, live, False
    for k in range(1, max_iters + 1):
        fresh = live.merge(step(fresh))
        stable = not fresh
        yield k, live, stable
        if stable:
            return
    raise SaturationExhausted("no fixed point within %d rounds" % max_iters)


def _backward(safe: Basis, backend, max_iters: int):
    return _saturation(safe, backend.pre_basis, backend.order, max_iters)


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
    k = 0
    try:
        for k, live, stable in rounds:
            if trace is not None:
                trace.append(live.basis())
            for i, targets in enumerate(target_lists):
                if found[i] is None and all(map(live.covers, targets)):
                    found[i] = k
            if stable or None not in found:
                return found, k, None
    except (SaturationExhausted, GuardExceeded) as exc:
        return found, k, exc


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
    trace: List[Basis] = []
    for k, live, stable in _backward(safe, backend, max_iters):
        if keep_trace:
            trace.append(live.basis())
        if stable:  # it kept no candidate, so it holds the previous basis
            return (live.basis(), k - 1, trace) if keep_trace else (live.basis(), k - 1)


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
        start_basis = minimize([start], backend.order)
        for _k, closure, _stable in _saturation(start_basis, backend.post_basis,
                                                backend.order, limits.max_iters):
            pass
        asked.append(closure.basis().elements)
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
