"""Engine behavior: saturation, verdicts, indices, approximations."""

import itertools
from dataclasses import replace

import pytest

from resilire import model
from resilire.constraints import BadSet
from resilire.engine import (EXHAUSTED, FOUND, INFINITY, UNBOUNDED,
                             ResilienceInstance, backward_step, forward_states,
                             min_recovery, overapprox_bound, pre_star,
                             recovery_bound, underapprox_bound)
from resilire.errors import GuardExceeded, SaturationExhausted
from resilire.limits import Limits
from resilire.order import Basis, basis_subset, covers, minimize
from resilire.petri import Marking, PetriBackend, enabled, fire, make_net

from conftest import explore, fixture_path, recovery_oracle, rng_for

EVERYTHING = BadSet("custom", lambda s: True, "all states")


def two_place_net(rng):
    specs = []
    for i in range(rng.randint(1, 3)):
        pre = {"a": rng.randint(0, 2), "b": rng.randint(0, 2)}
        post = {"a": rng.randint(0, 2), "b": rng.randint(0, 2)}
        specs.append({"name": "t%d" % i, "pre": pre, "post": post})
    return make_net(["a", "b"], specs)


def test_backward_step_empty():
    backend = PetriBackend(make_net(["a"], []))
    empty = Basis(backend.order, ())
    assert backward_step(empty, empty, backend).elements == ()


def test_backward_step_matches_grid_enumeration():
    """One backward round must generate exactly the safe states plus the
    one-step predecessors of the current ideal, on a bounded grid."""
    rng = rng_for("step-grid")
    grid = [Marking(t) for t in itertools.product(range(6), repeat=2)]
    for _ in range(25):
        net = two_place_net(rng)
        backend = PetriBackend(net)
        safe = minimize([Marking((rng.randint(0, 2), rng.randint(0, 2)))
                         for _ in range(2)], backend.order)
        current = minimize(list(safe.elements) +
                           [Marking((rng.randint(0, 3), rng.randint(0, 3)))],
                           backend.order)
        stepped = backward_step(current, safe, backend)
        for m in grid:
            truth = covers(safe, m) or any(
                enabled(net, m, t) and covers(current, fire(net, m, t))
                for t in net.transitions)
            assert truth == covers(stepped, m)


def supply_instance(built, bad=None):
    return ResilienceInstance(
        backend=built.backend, reachable=built.reachable,
        bad=bad or built.bad, safe=built.safe,
        max_iters=built.doc.limits.max_iters)


def test_min_recovery_on_supply_chain(supply_built):
    verdict = min_recovery(supply_built.instance())
    assert verdict.kind == FOUND and verdict.k_min == 6


def test_found_verdict_is_tight(supply_built):
    """Found(k) means the targets are covered at round k, not before."""
    verdict = min_recovery(supply_built.instance(), keep_trace=True)
    targets = [s for s in supply_built.reachable.elements
               if supply_built.bad.contains(s)]
    assert basis_subset(targets, verdict.trace[verdict.k_min])
    assert not basis_subset(targets, verdict.trace[verdict.k_min - 1])


def test_first_backward_round_minimizes_published_generating_set(supply_built):
    """Minimizing the safety basis together with its one-step
    predecessors reproduces the published first-round bad slice."""
    candidates = list(supply_built.safe.elements)
    for b in supply_built.safe.elements:
        candidates.extend(supply_built.backend.pre_basis(b))
    round1 = minimize(candidates, supply_built.backend.order)
    bad_side = sorted(s.tokens for s in round1.elements if s.state == "e")
    assert bad_side == [(0, 1, 1, 1), (0, 2, 0, 1), (0, 2, 1, 0)]


def test_min_recovery_vacuous_when_no_bad_reachable(supply_built):
    never = BadSet("custom", lambda s: False, "nothing")
    verdict = min_recovery(supply_instance(supply_built, bad=never))
    assert verdict.kind == FOUND and verdict.k_min == 0


def test_min_recovery_unbounded_on_empty_safety(supply_built):
    inst = ResilienceInstance(
        backend=supply_built.backend, reachable=supply_built.reachable,
        bad=supply_built.bad, safe=Basis(supply_built.backend.order, ()),
        max_iters=100)
    verdict = min_recovery(inst)
    assert verdict.kind == UNBOUNDED


def test_min_recovery_exhausted_with_tiny_guard(supply_built):
    inst = ResilienceInstance(
        backend=supply_built.backend, reachable=supply_built.reachable,
        bad=supply_built.bad, safe=supply_built.safe, max_iters=3)
    verdict = min_recovery(inst)
    assert verdict.kind == EXHAUSTED and verdict.iterations == 3


def test_min_recovery_overlap_guard_trip_is_exhausted():
    doc = model.load(fixture_path("pathgame.json"))
    doc = replace(doc, limits=replace(doc.limits, overlap_count=1))
    verdict = min_recovery(model.build(doc).instance())
    assert verdict.kind == EXHAUSTED and verdict.k_min is None


def test_recovery_bound_overlap_guard_trip_raises():
    doc = model.load(fixture_path("pathgame.json"))
    built = model.build(replace(doc, limits=replace(doc.limits, overlap_count=1)))
    with pytest.raises(GuardExceeded):
        recovery_bound(built.reachable.elements, built.bad, built.safe,
                       built.backend, built.doc.limits.max_iters)


def recovers_within(inst, k):
    """The fixed-bound question as `check --k` answers it."""
    verdict = min_recovery(inst)
    if verdict.kind == EXHAUSTED:
        return None
    return verdict.kind == FOUND and verdict.k_min <= k


def test_recovery_within(supply_built):
    assert recovers_within(supply_built.instance(), 6)
    assert not recovers_within(supply_built.instance(), 5)
    never = BadSet("custom", lambda s: False, "nothing")
    assert recovers_within(supply_instance(supply_built, bad=never), 0)


def test_recovery_within_propagates_exhaustion(supply_built):
    inst = ResilienceInstance(
        backend=supply_built.backend, reachable=supply_built.reachable,
        bad=supply_built.bad, safe=supply_built.safe, max_iters=2)
    assert recovers_within(inst, 6) is None


def test_pre_star_whole_space_has_index_zero():
    backend = PetriBackend(make_net(
        ["a", "b"], [{"name": "t", "pre": {"a": 1}, "post": {"b": 1}}]))
    whole = minimize([Marking((0, 0))], backend.order)
    basis, index = pre_star(whole, backend)
    assert index == 0 and basis.elements == whole.elements


def test_pre_star_one_place_consumer():
    backend = PetriBackend(make_net(
        ["p"], [{"name": "t", "pre": {"p": 1}, "post": {}}]))
    safe = minimize([Marking((1,))], backend.order)
    basis, index = pre_star(safe, backend)
    assert index == 0
    # brute force on the 0..5 grid: exactly the markings with a token reach safety
    for n in range(6):
        assert covers(basis, Marking((n,))) == (n >= 1)


def test_pre_star_supply_chain_trace(supply_built):
    basis, index, trace = pre_star(
        supply_built.safe, supply_built.backend, 10000, keep_trace=True)
    assert index == 20
    bad_side = [sorted(s.tokens for s in b.elements if s.state == "e")
                for b in trace[:7]]
    assert bad_side[1] == [(0, 1, 1, 1), (0, 2, 0, 1), (0, 2, 1, 0)]
    assert bad_side[3] == bad_side[4] == bad_side[5] == \
        [(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0), (0, 3, 0, 0)]
    assert bad_side[6] == [(0, 0, 0, 2), (0, 0, 1, 1), (0, 0, 2, 0),
                           (0, 1, 0, 1), (0, 1, 1, 0), (0, 3, 0, 0)]


def test_stop_condition_is_stable(supply_built):
    """Ten further rounds after the fixed point change nothing."""
    basis, _index = pre_star(supply_built.safe, supply_built.backend, 10000)
    current = basis
    for _ in range(10):
        nxt = backward_step(current, supply_built.safe, supply_built.backend)
        assert basis_subset(nxt.elements, current)
        assert basis_subset(current.elements, nxt)
        current = nxt


def test_saturation_is_monotone(supply_built):
    verdict = min_recovery(supply_built.instance(), keep_trace=True)
    for earlier, later in zip(verdict.trace, verdict.trace[1:]):
        assert basis_subset(earlier.elements, later)


def test_recovery_bound_empty_is_zero(supply_built):
    assert recovery_bound([], supply_built.bad, supply_built.safe,
                          supply_built.backend) == 0


def test_recovery_bound_unreachable_is_infinity():
    backend = PetriBackend(make_net(["p"], []))
    safe = minimize([Marking((1,))], backend.order)
    assert recovery_bound([Marking((0,))], EVERYTHING, safe, backend) == INFINITY


def test_recovery_bound_invariant_under_minimization(supply_built):
    rng = rng_for("mu-closure")
    states = list(supply_built.doc.automaton.states)
    for _ in range(15):
        sample = [Marking(tuple(rng.randint(0, 2) for _ in range(4)),
                          rng.choice(states))
                  for _ in range(rng.randint(1, 6))]
        antichain = minimize(sample, supply_built.backend.order)
        full = recovery_bound(sample, supply_built.bad, supply_built.safe,
                              supply_built.backend)
        reduced = recovery_bound(antichain.elements, supply_built.bad,
                                 supply_built.safe, supply_built.backend)
        assert full == reduced


def test_forward_states_layers(supply_built):
    layers = forward_states(supply_built.start, supply_built.backend, 2)
    assert layers[0] == [supply_built.start]
    assert all(s.state == "p" or s.state == "d" for s in layers[1])


def test_forward_guards():
    backend = PetriBackend(make_net(
        ["p"], [{"name": "t", "pre": {}, "post": {"p": 1}}]))
    with pytest.raises(SaturationExhausted):
        forward_states(Marking((0,)), backend, 5, Limits(forward_state_cap=3))
    with pytest.raises(SaturationExhausted):
        forward_states(Marking((0,)), backend, 5, Limits(forward_depth_cap=2))


def test_underapprox_examples(supply_built):
    assert underapprox_bound(supply_built.start, 0, supply_built.bad,
                             supply_built.safe, supply_built.backend) == 0
    bounds = [underapprox_bound(supply_built.start, d, supply_built.bad,
                                supply_built.safe, supply_built.backend)
              for d in range(0, 21, 2)]
    assert bounds == sorted(bounds), "nondecreasing in the depth"
    assert bounds[-1] == 6
    # a start state outside the bad set and outside safety still gives 0 at depth 0
    outside = Marking((1, 0, 0, 0), "p")
    assert underapprox_bound(outside, 0, supply_built.bad, supply_built.safe,
                             supply_built.backend) == 0


def test_overapprox_examples(supply_built):
    assert overapprox_bound(supply_built.start, supply_built.bad,
                            supply_built.safe, supply_built.backend) >= 6

    frozen = PetriBackend(make_net(["p"], []))
    safe = minimize([Marking((1,))], frozen.order)
    assert recovery_bound([Marking((2,))], EVERYTHING, safe, frozen) == 0
    assert overapprox_bound(Marking((2,)), EVERYTHING, safe, frozen) == 0
    assert overapprox_bound(Marking((0,)), EVERYTHING, safe, frozen) == INFINITY

    producer = PetriBackend(make_net(
        ["p"], [{"name": "t", "pre": {}, "post": {"p": 1}}]))
    safe = minimize([Marking((1,))], producer.order)
    assert overapprox_bound(Marking((0,)), EVERYTHING, safe, producer) == 1


def test_overapprox_on_graph_model(triangle_doc):
    built = model.build(triangle_doc)
    assert overapprox_bound(built.start, built.bad, built.safe, built.backend) == 1


def test_overapprox_exhaustion_raises(supply_built):
    with pytest.raises(SaturationExhausted):
        overapprox_bound(supply_built.start, supply_built.bad, supply_built.safe,
                         supply_built.backend, Limits(max_iters=2))


def test_verdict_matches_explicit_oracle_small():
    built = model.build(model.load(fixture_path("adverse_vs_error_petri.json")))
    states = explore(built.backend, built.start, 10_000)
    oracle = recovery_oracle(built.backend, states, built.safe, built.bad)
    verdict = min_recovery(ResilienceInstance(
        backend=built.backend,
        reachable=built.backend.basis(states),
        bad=built.bad, safe=built.safe, max_iters=1000))
    assert verdict.kind == FOUND and verdict.k_min == oracle == 1
