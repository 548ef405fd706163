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
below by bounded forward exploration and from above through the
inverted backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import GuardExceeded, NotInvertible, SaturationExhausted
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


def backward_step(current: Basis, safe: Basis, backend) -> Basis:
    """Basis of (safety ideal) union (one-step predecessors of `current`)."""
    candidates = list(safe.elements)
    for b in current.elements:
        candidates.extend(backend.pre_basis(b))
    return minimize(candidates, backend.order)


def _saturation(safe: Basis, backend, max_iters: int):
    """Yield (k, basis-of-round-k, stable) starting at k=0.

    `stable` marks the first round whose ideal equals the previous one
    (the fixed point); iteration stops after yielding it.  Raises
    SaturationExhausted when the guard trips first.
    """
    current = safe
    yield 0, current, False
    for k in range(1, max_iters + 1):
        nxt = backward_step(current, safe, backend)
        stable = basis_subset(nxt.elements, current)
        yield k, nxt, stable
        if stable:
            return
        current = nxt
    raise SaturationExhausted("no fixed point within %d rounds" % max_iters)


def min_recovery(inst: ResilienceInstance, keep_trace: bool = False) -> Verdict:
    """Least k with every reachable bad state k-step recoverable.

    Returns Verdict(found, k), Verdict(unbounded) when saturation
    settles before the reachable bad states are covered, or
    Verdict(exhausted) when the iteration guard or a backend's size
    guard trips; its iteration count is the last completed round.
    """
    targets = [b for b in inst.reachable.elements if inst.bad.contains(b)]
    trace: List[Basis] = []
    k = 0
    try:
        for k, basis, stable in _saturation(inst.safe, inst.backend, inst.max_iters):
            if keep_trace:
                trace.append(basis)
            if basis_subset(targets, basis):
                return Verdict(FOUND, k, k, tuple(trace) if keep_trace else None)
            if stable:
                return Verdict(UNBOUNDED, None, k, tuple(trace) if keep_trace else None)
    except (SaturationExhausted, GuardExceeded):
        pass
    return Verdict(EXHAUSTED, None, k, tuple(trace) if keep_trace else None)


def recovery_within(inst: ResilienceInstance, k: int) -> bool:
    """Decide the fixed-bound question: is every reachable bad state
    recoverable within k steps?"""
    verdict = min_recovery(inst)
    if verdict.kind == EXHAUSTED:
        raise SaturationExhausted(
            "inconclusive: no fixed point within %d rounds" % inst.max_iters)
    return verdict.kind == FOUND and verdict.k_min <= k


def pre_star(safe: Basis, backend, max_iters: int = DEFAULT_LIMITS.max_iters,
             keep_trace: bool = False):
    """Saturate to the basis of all states that can ever reach the ideal.

    Returns (basis, index) where index is the first round from which the
    sequence of ideals is stationary; with keep_trace also the list of
    per-round bases.
    """
    trace: List[Basis] = []
    previous = safe
    for k, basis, stable in _saturation(safe, backend, max_iters):
        if keep_trace:
            trace.append(basis)
        if stable:
            return (previous, k - 1, trace) if keep_trace else (previous, k - 1)
        previous = basis
    raise SaturationExhausted("unreachable")  # _saturation raised already


def recovery_bound(states, bad, safe: Basis, backend,
                   max_iters: int = DEFAULT_LIMITS.max_iters):
    """Least k covering the bad part of `states` in k rounds, else inf.

    The bad part may be replaced by the antichain of its minimal
    elements without changing the answer (coverage only consults the
    upward closure against a downward-closed filter).
    """
    targets = [s for s in states if bad.contains(s)]
    for k, basis, stable in _saturation(safe, backend, max_iters):
        if basis_subset(targets, basis):
            return k
        if stable:
            return INFINITY
    return INFINITY


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

    Runs backward saturation in the inverted backend, which computes the
    forward closure of the start's upward closure; the result is an
    upper bound on the true k.  Requires an invertible backend.
    """
    inverse = getattr(backend, "invertible", None)
    if inverse is None:
        raise NotInvertible(
            "the backend has no inverted twin: forward closures of upward-closed "
            "sets are only computable when every step can be undone exactly "
            "(swapped flow for nets; rule application must never delete "
            "dangling edges in either direction)")
    start_basis = minimize([start], backend.order)
    closure, _index = pre_star(start_basis, inverse, limits.max_iters)
    return recovery_bound(closure.elements, bad, safe, backend, limits.max_iters)
