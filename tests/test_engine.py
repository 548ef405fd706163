"""Engine behavior: saturation, verdicts, indices, approximations."""

import gc
import itertools
import weakref
from dataclasses import replace

import pytest

from resilire import engine, model, petri
from resilire.constraints import BadSet
from resilire.control import make_automaton
from resilire.engine import (EXHAUSTED, FOUND, INFINITY, UNBOUNDED,
                             ResilienceInstance, _Ledger, _rounds,
                             approx_bounds, backward_step, forward_states,
                             min_recovery, overapprox_bound, pre_star,
                             recovery_bound, underapprox_bound)
from resilire.errors import GuardExceeded, ModelError, SaturationExhausted
from resilire.limits import Limits
from resilire.order import Antichain, Basis, basis_subset, covers, minimize
from resilire.petri import (ENVIRONMENT, MARKERS, START_MARKER, SYSTEM, Marking,
                            PetriBackend, ProductBackend, VectorOrder, enabled, fire,
                            make_net)

from conftest import explore, fixture_path, recovery_oracle, rng_for

EVERYTHING = BadSet(lambda s: True)


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
                enabled(m, t) and covers(current, fire(m, t))
                for t in net.transitions)
            assert truth == covers(stepped, m)


def full_rounds(seed, one_round, limit=500):
    """Reference saturation: iterate a full one-step operator up to the
    first round whose ideal equals the previous round's."""
    rounds = [seed]
    while len(rounds) <= limit:
        rounds.append(one_round(rounds[-1]))
        if basis_subset(rounds[-1].elements, rounds[-2]):
            return rounds
    raise AssertionError("reference saturation did not settle")


def assert_frontier_rounds_match(seed, step, order, one_round):
    """Frontier-only saturation yields the reference's bases, round by
    round, and flags exactly its last round as stable."""
    want = full_rounds(seed, one_round)
    ledger = _Ledger(seed)
    got = [(k, stable) for k, _, stable in _rounds(ledger, step, len(want) + 5)]
    assert [k for k, _ in got] == list(range(len(want)))
    assert [[order.key(b) for b in basis] for basis in ledger.bases()] == \
        [[order.key(b) for b in basis] for basis in want]
    assert [stable for _, stable in got] == [False] * (len(want) - 1) + [True]
    return len(want)


def reference_round(seed, current, step, order):
    """One full round minimized from scratch, without merging into
    `seed` as a known antichain."""
    return minimize(list(seed) + step(current.elements), order)


def assert_both_directions_match(backend, safe, start):
    order = backend.order
    backward = assert_frontier_rounds_match(
        safe, backend.pre_basis, order,
        lambda current: reference_round(safe, current, backend.pre_basis, order))
    start_basis = minimize([start], order)
    forward = assert_frontier_rounds_match(
        start_basis, backend.post_basis, order,
        lambda current: reference_round(start_basis, current, backend.post_basis, order))
    return backward, forward


@pytest.mark.parametrize("fixture", ["supplychain.json", "adverse_vs_error_petri.json",
                                     "adverse_vs_error.json"])
def test_frontier_rounds_equal_full_rounds_on_fixtures(fixture):
    built = model.build(model.load(fixture_path(fixture)))
    backward, forward = assert_both_directions_match(built.backend, built.safe,
                                                     built.start)
    assert backward > 2 and forward > 2


def random_product(rng):
    """A small random net under a random control automaton, annotated
    with owner markers half of the time, with a safety basis and a start."""
    places = ["a", "b", "c"]
    weights = (0, 0, 0, 1, 1, 2)
    specs = [{"name": "t%d" % i, "owner": rng.choice((SYSTEM, ENVIRONMENT)),
              "pre": {p: rng.choice(weights) for p in places},
              "post": {p: rng.choice(weights) for p in places}}
             for i in range(rng.randint(1, 4))]
    names = [spec["name"] for spec in specs]
    states = ["q0", "q1", "q2"][:rng.randint(1, 3)]
    edges = [{"from": rng.choice(states), "to": rng.choice(states),
              "select": rng.sample(names, rng.randint(1, len(names)))}
             for _ in range(rng.randint(1, 4))]
    annotate = rng.random() < 0.5
    backend = ProductBackend(make_net(places, specs),
                             make_automaton(states, states[0], edges, set(names)),
                             annotate)
    markers = MARKERS if annotate else (None,)

    def tokens():
        return tuple(rng.randint(0, 3) for _ in places)

    safe = minimize([Marking(tokens(), rng.choice(states), rng.choice(markers))
                     for _ in range(rng.randint(1, 3))], backend.order)
    start = Marking(tokens(), states[0], START_MARKER if annotate else None)
    return backend, safe, start


def test_frontier_rounds_equal_full_rounds_on_random_products():
    rng = rng_for("frontier-rounds")
    longest = 0
    for _ in range(30):
        rounds = assert_both_directions_match(*random_product(rng))
        longest = max(longest, *rounds)
    assert longest >= 6


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
    candidates.extend(supply_built.backend.pre_basis(supply_built.safe.elements))
    round1 = minimize(candidates, supply_built.backend.order)
    bad_side = sorted(s.tokens for s in round1.elements if s.state == "e")
    assert bad_side == [(0, 1, 1, 1), (0, 2, 0, 1), (0, 2, 1, 0)]


def test_min_recovery_vacuous_when_no_bad_reachable(supply_built):
    never = BadSet(lambda s: False)
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
    assert verdict.reason == "no fixed point within 3 rounds"


def test_min_recovery_overlap_guard_trip_is_exhausted():
    doc = model.load(fixture_path("pathgame.json"))
    doc = replace(doc, limits=replace(doc.limits, overlap_count=1))
    verdict = min_recovery(model.build(doc).instance())
    assert verdict.kind == EXHAUSTED and verdict.k_min is None
    assert verdict.reason == "more than 1 overlaps enumerated"


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
    never = BadSet(lambda s: False)
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


def test_approx_bounds_share_one_backward_saturation(supply_built, monkeypatch):
    args = (supply_built.start, supply_built.bad, supply_built.safe,
            supply_built.backend)
    separate = (underapprox_bound(supply_built.start, 12, *args[1:]),
                overapprox_bound(*args))
    saturations = []
    backward = engine._backward
    monkeypatch.setattr(engine, "_backward",
                        lambda *a: saturations.append(a) or backward(*a))
    assert approx_bounds(*args, depth=12, over=True) == separate
    assert len(saturations) == 1
    assert approx_bounds(*args, over=True) == (None, separate[1])
    assert approx_bounds(*args, depth=12) == (separate[0], None)


def test_saturation_covers_targets_without_comparing_markings(supply_built, monkeypatch):
    """Targets are looked up in the live antichain's index: a whole
    `check` of the supply chain makes no `VectorOrder.leq` call."""
    instance = supply_built.instance()
    targets = [b for b in instance.reachable if instance.bad.contains(b)]
    calls = []
    leq = VectorOrder.leq
    monkeypatch.setattr(VectorOrder, "leq",
                        lambda self, a, b: calls.append((a, b)) or leq(self, a, b))
    rounds = engine._backward(instance.safe, instance.backend, instance.max_iters)
    assert engine._cover([targets], rounds) == ([6], 6, None)
    assert targets and calls == []


def test_saturation_indexes_each_kept_marking_once(monkeypatch):
    """One `check` of the (3, 3) supply chain adds each marking to an
    antichain index once: the saturation's index, the only one, gets
    exactly the keys ever kept, the safe basis's and every merge's
    fresh elements."""
    instance = model.build(model.load(fixture_path("supply_n3c3.json"))).instance()
    order, kept, adds = instance.backend.order, list(instance.safe), {}
    add, merge = petri._TokenMasks.add, Antichain.merge

    def recording_merge(live, candidates):
        fresh = merge(live, candidates)
        kept.extend(fresh)
        return fresh

    monkeypatch.setattr(petri._TokenMasks, "add", lambda index, m: (
        adds.setdefault(id(index), []).append(m) or add(index, m)))
    monkeypatch.setattr(Antichain, "merge", recording_merge)
    verdict = min_recovery(instance)
    assert (verdict.kind, verdict.k_min) == (FOUND, 74)
    [saturation] = adds.values()
    assert sorted(map(order.key, saturation)) == sorted(map(order.key, kept))
    assert len(set(map(order.key, kept))) == len(kept) > 1000


def test_approx_bounds_guard_trip_raises():
    """Also when asked again: a trip leaves no error in the ledger."""
    doc = model.load(fixture_path("pathgame.json"))
    built = model.build(replace(doc, limits=replace(doc.limits, overlap_count=1)))
    for _ in range(2):
        with pytest.raises(GuardExceeded):
            approx_bounds(built.start, built.bad, built.safe, built.backend, depth=1,
                          limits=built.doc.limits)


def basis_keys(basis):
    return [basis.order.key(b) for b in basis]


def check_answer(built):
    v = min_recovery(built.instance(), keep_trace=True)
    return v.kind, v.k_min, v.iterations, v.reason, [basis_keys(b) for b in v.trace]


def approx_answer(built):
    return approx_bounds(built.start, built.bad, built.safe, built.backend, depth=8,
                         over=True, limits=built.doc.limits)


def prestar_answer(built):
    basis, index, trace = pre_star(built.safe, built.backend,
                                   built.doc.limits.max_iters, keep_trace=True)
    return basis_keys(basis), index, [basis_keys(b) for b in trace]


QUERIES = {"check": check_answer, "approx": approx_answer, "prestar": prestar_answer}


@pytest.mark.parametrize("fixture", ["supplychain.json", "adverse_vs_error_petri.json",
                                     "adverse_vs_error.json", "supply_n3c3.json",
                                     "pathgame.json"])
def test_queries_on_one_model_answer_as_on_fresh_models(fixture):
    """`check`, `approx` and `prestar` share one backward saturation per
    model; in several orders they answer as each does on a fresh model,
    traces included."""
    doc = model.load(fixture_path(fixture))
    fresh = {name: ask(model.build(doc)) for name, ask in QUERIES.items()}
    names = list(QUERIES)
    orders = ([names[::-1]] if fixture == "pathgame.json"
              else [names[i:] + names[:i] for i in range(3)] + [names[::-1]])
    for order in orders:
        built = model.build(doc)
        assert {name: QUERIES[name](built) for name in order} == fresh, order


def test_queries_on_one_model_share_their_rounds(monkeypatch):
    """On the (3, 3) supply chain the three queries step 122 rounds on
    one model, against 74 + 83 + 122 on fresh models."""
    doc = model.load(fixture_path("supply_n3c3.json"))
    steps, pre_basis = [], ProductBackend.pre_basis
    monkeypatch.setattr(ProductBackend, "pre_basis",
                        lambda backend, frontier: steps.append(backend) or
                        pre_basis(backend, frontier))
    queries = [
        lambda built: (lambda v: (v.kind, v.k_min))(min_recovery(built.instance())),
        lambda built: approx_bounds(built.start, built.bad, built.safe, built.backend,
                                    depth=12, over=True, limits=built.doc.limits),
        lambda built: pre_star(built.safe, built.backend)[1],
    ]
    built = model.build(doc)
    assert [ask(built) for ask in queries] == [(FOUND, 74), (80, 83), 121]
    assert len(steps) == 122
    separate = []
    for ask in queries:
        steps.clear()
        ask(model.build(doc))
        separate.append(len(steps))
    assert separate == [74, 83, 122]


def test_tiny_guard_after_the_fixed_point_is_exhausted_as_on_a_fresh_model():
    doc = model.load(fixture_path("supplychain.json"))
    fresh, built = model.build(doc), model.build(doc)
    pre_star(built.safe, built.backend)
    verdicts = [min_recovery(replace(b.instance(), max_iters=3)) for b in (fresh, built)]
    assert verdicts[0] == verdicts[1]
    assert (verdicts[1].kind, verdicts[1].iterations) == (EXHAUSTED, 3)


def test_one_ledger_per_safety_basis():
    """Queries with another safety basis on the same backend saturate
    from that basis."""
    doc = model.load(fixture_path("supplychain.json"))
    built = model.build(doc)
    safes = [built.safe, Basis(built.safe.order, built.safe.elements[:1])]
    fresh = [pre_star(safe, model.build(doc).backend) for safe in safes]
    got = [pre_star(safe, built.backend) for safe in safes]
    answers = [[(basis_keys(b), i) for b, i in results] for results in (fresh, got)]
    assert answers[0] == answers[1] and answers[0][0] != answers[0][1]


def test_dropping_a_model_frees_its_backend_and_ledgers():
    built = model.build(model.load(fixture_path("supplychain.json")))
    min_recovery(built.instance())
    [ledger] = engine._LEDGERS[built.backend].values()
    refs = [weakref.ref(built.backend), weakref.ref(ledger)]
    del built, ledger
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


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
        reachable=minimize(states, built.backend.order),
        bad=built.bad, safe=built.safe, max_iters=1000))
    assert verdict.kind == FOUND and verdict.k_min == oracle == 1


# -- wrong verdicts on graph classes, pinned until they are fixed --------------

def gts_graph(nodes, edges=()):
    """A model-document graph from {id: label} and (src, tgt) pairs."""
    return {"nodes": [{"id": i, "label": l} for i, l in nodes.items()],
            "edges": [{"id": "e%d" % k, "src": s, "tgt": t, "label": "x"}
                      for k, (s, t) in enumerate(edges)]}


def gts_model(klass, left, right, node_map, start, safety, more_rules=()):
    """A graph model with the rule left -> right (and `more_rules`, as
    (left, right, node_map) triples) whose start is its only `b_post`
    state, under the error reading of bad."""
    rules = [(left, right, node_map), *more_rules]
    return model.from_dict({
        "format": "resilire/1", "kind": "gts",
        "gts": {"class": klass,
                "rules": [{"name": "r%d" % i, "owner": "sys", "left": l,
                           "right": r, "map": {"nodes": m, "edges": []}}
                          for i, (l, r, m) in enumerate(rules)],
                "start": start},
        "safety": {"op": "exists", "graph": safety},
        "bad": {"mode": "error"},
        "b_post": [{"graph": start}]})


def test_max_bounded_creation_gives_no_successor():
    """The rule would push b past its maximum, so the start has no
    successor and never reaches safety, yet the backward step would
    answer found, k_min 1: the loader refuses the rule, naming each
    label whose count it raises against a max."""
    with pytest.raises(ModelError) as err:
        gts_model(
            {"max_path": 2, "node_count": {"a": {"max": 2}, "b": {"max": 2}}},
            gts_graph({"b": "b"}),
            gts_graph({"b": "b", "b2": "b", "a": "a"}, [("b", "b2"), ("b2", "b")]),
            [["b", "b"]],
            gts_graph({"u": "b", "v": "b"}, [("u", "v")]),
            gts_graph({"a": "a", "b": "b"}))
    assert err.value.issues == [
        ("/gts/rules/0", "rule 'r0' creates more %r nodes than it deletes, and %r has a max"
         % (lab, lab)) for lab in ("a", "b")]


@pytest.mark.parametrize("klass, left, right, node_map, start, safety", [
    # deleting b below the a minimum: the bare {b} must stay a predecessor
    ({"node_count": {"a": {"min": 1}}},
     gts_graph({"b": "b"}), gts_graph({"c": "c", "a": "a"}, [("c", "a")]), [],
     gts_graph({"a": "a", "b": "b"}), gts_graph({"c": "c", "a": "a"}, [("c", "a")])),
    # a safety pattern below the a minimum: its basis element stays
    ({"node_count": {"a": {"min": 2}}},
     gts_graph({"b": "b"}), gts_graph({"b": "b", "c": "c"}, [("b", "c")]), [["b", "b"]],
     gts_graph({"a": "a", "a2": "a", "b": "b"}),
     gts_graph({"b": "b", "c": "c", "a": "a"}, [("b", "c")])),
], ids=["deletion", "safety-pattern"])
def test_min_bounded_deletion_reaches_safety_in_one_step(klass, left, right, node_map,
                                                         start, safety):
    """Ideal generators below a `node_count` minimum stay: the start
    reaches safety in one step, and both bounds say so."""
    built = model.build(gts_model(klass, left, right, node_map, start, safety))
    verdict = min_recovery(built.instance())
    assert (verdict.kind, verdict.k_min) == (FOUND, 1)
    assert approx_bounds(built.start, built.bad, built.safe, built.backend,
                         depth=3, over=True) == (1, 1)


@pytest.mark.parametrize("klass, left, right, node_map, start, safety, more_rules", [
    # {b} steps to c->a, but {a} steps to {b} only by deleting the last a
    ({"node_count": {"a": {"min": 1}}},
     gts_graph({"b": "b"}), gts_graph({"c": "c", "a": "a"}, [("c", "a")]), [],
     gts_graph({"a": "a"}), gts_graph({"c": "c", "a": "a"}, [("c", "a")]),
     [(gts_graph({"a": "a"}), gts_graph({"b": "b"}), [])]),
    # the only step from {a, a} leaves one a, below the minimum
    ({"node_count": {"a": {"min": 2}}},
     gts_graph({"a": "a"}), gts_graph({"c": "c"}), [],
     gts_graph({"a": "a", "a2": "a"}), gts_graph({"c": "c", "a": "a"}), []),
], ids=["two-rules", "safety-pattern"])
def test_min_bounded_successor_must_meet_the_minimum(klass, left, right, node_map,
                                                     start, safety, more_rules):
    """A target below a `node_count` minimum is reached only by hosts
    whose successor meets it: the start never reaches safety."""
    built = model.build(gts_model(klass, left, right, node_map, start, safety,
                                  more_rules))
    assert min_recovery(built.instance()).kind == UNBOUNDED
    assert approx_bounds(built.start, built.bad, built.safe, built.backend,
                         depth=3, over=True) == (INFINITY, INFINITY)
