"""Backend-independent resilience engine.

The decision procedure is backward ideal saturation: starting from the
basis of the safety ideal, each round adjoins the basis of the one-step
predecessor ideal and minimizes.  The sequence of ideals is monotone
and, over a well-quasi-order, eventually stationary, so saturation
terminates; a configurable iteration guard additionally bounds every
loop and reports a distinct 'exhausted' outcome when it trips.

Recovery bounds: the minimal-step search returns the least k such that
every bad state that the system can reach lies within k backward steps
of safety, or 'unbounded' when saturation settles first.  When no basis
of the reachable states is supplied the same bound is approximated from
below by bounded forward exploration and from above by forward ideal
saturation: the same round loop, driven by each backend's one-step
successor basis of an upward closure (`post_basis`), saturates the
start's upward closure forwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import GuardExceeded, SaturationExhausted
from .limits import DEFAULT_LIMITS, Limits
from .order import Basis, basis_subset, minimize

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
    kind: str
    k_min: Optional[int]
    iterations: int
    trace: Optional[Tuple[Basis, ...]] = None


def _round(seed: Basis, current: Basis, step, order) -> Basis:
    """Basis of up(seed) union the ideals of `step(b)` for b in `current`."""
    candidates = list(seed.elements)
    for b in current.elements:
        candidates.extend(step(b))
    return minimize(candidates, order)


def backward_step(current: Basis, safe: Basis, backend) -> Basis:
    """Basis of (safety ideal) union (one-step predecessors of `current`)."""
    return _round(safe, current, backend.pre_basis, backend.order)


def _saturation(seed: Basis, step, max_iters: int):
    """Yield (k, basis-of-round-k, stable) starting at k=0, where round k
    is `step` applied to round k-1.

    `stable` marks the first round whose ideal equals the previous one
    (the fixed point); iteration stops after yielding it.  Raises
    SaturationExhausted when the guard trips first.
    """
    current = seed
    yield 0, current, False
    for k in range(1, max_iters + 1):
        nxt = step(current)
        stable = basis_subset(nxt.elements, current)
        yield k, nxt, stable
        if stable:
            return
        current = nxt
    raise SaturationExhausted("no fixed point within %d rounds" % max_iters)


def _backward(safe: Basis, backend, max_iters: int):
    return _saturation(safe, lambda current: backward_step(current, safe, backend),
                       max_iters)


def _cover(targets, rounds, trace: Optional[List[Basis]] = None):
    """Walk saturation rounds to the first whose ideal holds `targets`.

    Returns (kind, k, error): (found, k) at that round, (unbounded, k)
    at a fixed point that does not hold them, or (exhausted, last
    completed round, the guard's exception).  `trace` collects every
    round's basis.
    """
    k = 0
    try:
        for k, basis, stable in rounds:
            if trace is not None:
                trace.append(basis)
            if basis_subset(targets, basis):
                return FOUND, k, None
            if stable:
                return UNBOUNDED, k, None
    except (SaturationExhausted, GuardExceeded) as exc:
        return EXHAUSTED, k, exc


def min_recovery(inst: ResilienceInstance, keep_trace: bool = False) -> Verdict:
    """Least k with every reachable bad state k-step recoverable.

    Returns Verdict(found, k), Verdict(unbounded) when saturation
    settles before the reachable bad states are covered, or
    Verdict(exhausted) when the iteration guard or a backend's size
    guard trips; its iteration count is the last completed round.
    """
    targets = [b for b in inst.reachable.elements if inst.bad.contains(b)]
    trace: Optional[List[Basis]] = [] if keep_trace else None
    kind, k, _error = _cover(
        targets, _backward(inst.safe, inst.backend, inst.max_iters), trace)
    return Verdict(kind, k if kind == FOUND else None, k,
                   tuple(trace) if keep_trace else None)


def pre_star(safe: Basis, backend, max_iters: int = DEFAULT_LIMITS.max_iters,
             keep_trace: bool = False):
    """Saturate to the basis of all states that can ever reach the ideal.

    Returns (basis, index) where index is the first round from which the
    sequence of ideals is stationary; with keep_trace also the list of
    per-round bases.
    """
    trace: List[Basis] = []
    previous = safe
    for k, basis, stable in _backward(safe, backend, max_iters):
        if keep_trace:
            trace.append(basis)
        if stable:
            return (previous, k - 1, trace) if keep_trace else (previous, k - 1)
        previous = basis


def recovery_bound(states, bad, safe: Basis, backend,
                   max_iters: int = DEFAULT_LIMITS.max_iters):
    """Least k covering the bad part of `states` in k rounds, else inf.

    The bad part may be replaced by the antichain of its minimal
    elements without changing the answer (coverage only consults the
    upward closure against a downward-closed filter).  A guard trip
    raises.
    """
    targets = [s for s in states if bad.contains(s)]
    kind, k, error = _cover(targets, _backward(safe, backend, max_iters))
    if error is not None:
        raise error
    return k if kind == FOUND else INFINITY


def forward_states(start, backend, depth: int,
                   limits: Limits = DEFAULT_LIMITS) -> List[list]:
    """Breadth-first layers post^0 .. post^depth, deduplicated globally.

    Layer j holds the states first reached in exactly j steps; the
    union over layers is all states reachable within `depth` steps.
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


def underapprox_bound(start, depth: int, bad, safe: Basis, backend,
                      limits: Limits = DEFAULT_LIMITS):
    """Recovery bound over the states reachable within `depth` steps.

    A lower bound on the true k; nondecreasing in `depth` and eventually
    exact.  The forward set is minimized to an antichain first.
    """
    layers = forward_states(start, backend, depth, limits)
    seen = minimize([s for layer in layers for s in layer], backend.order)
    return recovery_bound(seen.elements, bad, safe, backend, limits.max_iters)


def overapprox_bound(start, bad, safe: Basis, backend,
                     limits: Limits = DEFAULT_LIMITS):
    """Recovery bound over everything reachable from above the start.

    Saturates the start's upward closure forwards through the backend's
    `post_basis`; the fixed point covers every reachable state, so the
    result is an upper bound on the true k.
    """
    start_basis = minimize([start], backend.order)
    closure = start_basis
    for _k, closure, _stable in _saturation(
            start_basis,
            lambda current: _round(start_basis, current, backend.post_basis,
                                   backend.order),
            limits.max_iters):
        pass
    return recovery_bound(closure.elements, bad, safe, backend, limits.max_iters)
