"""Net semantics: firing, ordering, ideal steps in both directions, product."""

import itertools

import pytest

from resilire.control import make_automaton
from resilire.errors import BackendMismatch
from resilire.order import covers, minimize
from resilire.petri import (ENVIRONMENT, MARKERS, Marking, PetriBackend,
                            ProductBackend, SYSTEM, VectorOrder, enabled, fire,
                            least_successor, make_net, min_enabling_cover)

from conftest import rng_for


def supply_net():
    return make_net(
        ["product", "warehouse", "store1", "store2"],
        [
            {"name": "produce", "owner": "sys", "pre": {}, "post": {"product": 1}},
            {"name": "transport", "owner": "sys", "pre": {"product": 1},
             "post": {"warehouse": 1}},
            {"name": "ship1", "owner": "sys", "pre": {"warehouse": 1},
             "post": {"store1": 1}},
            {"name": "ship2", "owner": "sys", "pre": {"warehouse": 1},
             "post": {"store2": 1}},
            {"name": "accident", "owner": "env", "pre": {"warehouse": 1}, "post": {}},
            {"name": "buy1", "owner": "env", "pre": {"store1": 1}, "post": {}},
            {"name": "buy2", "owner": "env", "pre": {"store2": 1}, "post": {}},
        ])


def supply_automaton():
    return make_automaton(
        ["e", "p", "pt", "ptp", "ptpt", "d", "dp", "dd"], "e",
        [
            {"from": "e", "to": "p", "select": ["produce"]},
            {"from": "p", "to": "pt", "select": ["transport"]},
            {"from": "pt", "to": "ptp", "select": ["produce"]},
            {"from": "ptp", "to": "ptpt", "select": ["transport"]},
            {"from": "ptpt", "to": "e", "select": ["accident", "buy1", "buy2"]},
            {"from": "e", "to": "d", "select": ["ship1", "ship2"]},
            {"from": "d", "to": "dd", "select": ["ship1", "ship2"]},
            {"from": "d", "to": "dp", "select": ["produce"]},
            {"from": "dp", "to": "dd", "select": ["transport"]},
            {"from": "pt", "to": "dd", "select": ["ship1", "ship2"]},
            {"from": "dd", "to": "e", "select": ["buy1", "buy2"]},
        ])


M0 = Marking((0, 1, 1, 1))
V4 = VectorOrder(4)


def test_enabled_examples():
    net = supply_net()
    assert not enabled(M0, net.transition("transport"))
    assert enabled(M0, net.transition("produce"))  # empty pre
    assert enabled(M0, net.transition("ship1"))


def test_fire_examples():
    net = supply_net()
    assert fire(M0, net.transition("ship1")).tokens == (0, 0, 2, 1)
    assert fire(M0, net.transition("produce")).tokens == (1, 1, 1, 1)
    noop = make_net(["p"], [{"name": "t", "pre": {"p": 1}, "post": {"p": 1}}])
    assert fire(Marking((3,)), noop.transition("t")).tokens == (3,)


def test_fire_requires_enabledness():
    net = supply_net()
    with pytest.raises(ValueError, match="not enabled"):
        fire(M0, net.transition("transport"))


def test_order_examples():
    with_state = VectorOrder(4, has_state=True)
    assert with_state.leq(Marking((0, 1, 1, 1), "e"), Marking((0, 5, 1, 1), "e"))
    assert not with_state.leq(Marking((0, 1, 1, 1), "e"), Marking((9, 9, 9, 9), "p"))
    a, b = Marking((0, 0, 2, 0)), Marking((0, 0, 1, 2))
    assert not V4.leq(a, b) and not V4.leq(b, a)
    with pytest.raises(BackendMismatch):
        VectorOrder(1).leq(Marking((1,)), Marking((1, 2)))


def test_min_enabling_cover_examples():
    net = supply_net()
    assert min_enabling_cover(M0, net.transition("transport")).tokens == (1, 0, 1, 1)
    zero = Marking((0, 0, 0, 0))
    assert min_enabling_cover(zero, net.transition("produce")).tokens == (0, 0, 0, 0)


def test_min_enabling_cover_exact_on_grid():
    """up({cover}) must equal {m : t enabled at m and firing covers the
    target} -- checked by full enumeration of a small grid."""
    rng = rng_for("cover-grid")
    net = supply_net()
    grid = list(itertools.product(range(4), repeat=4))
    for _ in range(40):
        target = Marking(tuple(rng.randint(0, 2) for _ in range(4)))
        t = rng.choice(net.transitions)
        cov = min_enabling_cover(target, t)
        for pt in grid:
            m = Marking(pt)
            truth = enabled(m, t) and all(
                x >= y for x, y in zip(fire(m, t).tokens, target.tokens))
            assert truth == V4.leq(cov, m)


def test_least_successor_examples():
    net = supply_net()
    assert least_successor(M0, net.transition("transport")).tokens == (0, 2, 1, 1)
    assert least_successor(M0, net.transition("ship1")).tokens == (0, 0, 2, 1)
    zero = Marking((0, 0, 0, 0))
    assert least_successor(zero, net.transition("buy1")).tokens == (0, 0, 0, 0)


def assert_post_basis_exact(backend, hosts, targets, starts):
    """up(post_basis(m)) must meet `targets` exactly at the markings above
    a one-step successor of some host above m.  `hosts` must hold every
    marking that can step below a target."""
    steps = {n: backend.post_step(n) for n in hosts}
    for m in starts:
        truth = minimize([s for n, out in steps.items() if backend.order.leq(m, n)
                          for s in out], backend.order)
        basis = backend.post_basis([m])
        for target in targets:
            assert covers(truth, target) == any(backend.order.leq(b, target)
                                                for b in basis)


def test_post_basis_exact_on_grid():
    rng = rng_for("post-grid")
    backend = PetriBackend(supply_net())
    hosts = [Marking(t) for t in itertools.product(range(4), repeat=4)]
    targets = [Marking(t) for t in itertools.product(range(3), repeat=4)]
    starts = [Marking(tuple(rng.randint(0, 2) for _ in range(4))) for _ in range(20)]
    assert_post_basis_exact(backend, hosts, targets, starts)


def test_plain_backend_pre_basis_sound_small():
    backend = PetriBackend(supply_net())
    m = Marking((0, 1, 0, 0))
    for p in backend.pre_basis([m]):
        assert any(V4.leq(m, s) for s in backend.post_step(p))


def test_ideal_steps_of_a_frontier_concatenate_the_per_marking_steps():
    rng = rng_for("petri-frontier")
    states = list(supply_automaton().states)

    def tokens():
        return tuple(rng.randint(0, 2) for _ in range(4))

    for backend, frontier in (
            (PetriBackend(supply_net()), [Marking(tokens()) for _ in range(6)]),
            (ProductBackend(supply_net(), supply_automaton(), annotate=True),
             [Marking(tokens(), rng.choice(states), rng.choice(MARKERS))
              for _ in range(12)])):
        for step in (backend.pre_basis, backend.post_basis):
            assert step(frontier) == [s for m in frontier for s in step([m])]
            assert step([]) == []


def test_product_recovery_in_seventeen_steps():
    """From the empty marking the narrated 17-step plan restocks: three
    produce/transport double-rounds (each ends with a forced environment
    event) and a final double shipment."""
    backend = ProductBackend(supply_net(), supply_automaton())
    plan = ["produce", "transport", "produce", "transport", "accident"] * 3 + \
           ["ship1", "ship2"]
    net = supply_net()
    state = Marking((0, 0, 0, 0), "e")
    steps = 0
    for name in plan:
        t = net.transition(name)
        nxt = fire(state, t)
        candidates = [s for s in backend.post_step(state)
                      if s.tokens == nxt.tokens]
        assert candidates, "plan step %s not available" % name
        state = min(candidates, key=backend.order.key)
        steps += 1
    assert steps == 17
    assert state.tokens == (0, 1, 1, 1) and state.state == "dd"


def test_product_empty_select_has_no_steps():
    net = supply_net()
    autom = make_automaton(["a", "b"], "a",
                           [{"from": "a", "to": "b", "select": []}],
                           {t.name for t in net.transitions})
    backend = ProductBackend(net, autom)
    assert backend.post_step(Marking((5, 5, 5, 5), "a")) == []


def test_product_first_backward_round_matches_published_row():
    backend = ProductBackend(supply_net(), supply_automaton())
    preds = [p for p in backend.pre_basis([Marking((0, 1, 1, 1), "p")])
             if p.state == "e"]
    assert [(p.tokens, p.state) for p in preds] == [((0, 1, 1, 1), "e")]
    at_d = backend.pre_basis([Marking((0, 1, 1, 1), "d")])
    assert sorted(p.tokens for p in at_d if p.state == "e") == \
        [(0, 2, 0, 1), (0, 2, 1, 0)]


def test_product_pre_basis_exact_on_grid():
    """The product's backward step is exact: its upward closure meets a
    bounded grid exactly at the one-step predecessors of the target's
    upward closure."""
    rng = rng_for("product-grid")
    backend = ProductBackend(supply_net(), supply_automaton())
    states = list(supply_automaton().states)
    grid = [Marking(t, q) for q in states
            for t in itertools.product(range(3), repeat=4)]
    for _ in range(12):
        target = Marking(tuple(rng.randint(0, 2) for _ in range(4)),
                         rng.choice(states))
        preds = backend.pre_basis([target])
        for m in grid:
            truth = any(
                nxt.state == target.state and
                all(x >= y for x, y in zip(nxt.tokens, target.tokens))
                for nxt in backend.post_step(m))
            assert truth == any(backend.order.leq(p, m) for p in preds)


def test_product_strong_compatibility_sampled():
    rng = rng_for("product-compat")
    backend = ProductBackend(supply_net(), supply_automaton())
    states = list(supply_automaton().states)
    for _ in range(300):
        small = Marking(tuple(rng.randint(0, 2) for _ in range(4)),
                        rng.choice(states))
        big = Marking(tuple(x + rng.randint(0, 2) for x in small.tokens),
                      small.state)
        for nxt in backend.post_step(small):
            assert any(nxt.state == o.state and
                       all(a <= b for a, b in zip(nxt.tokens, o.tokens))
                       for o in backend.post_step(big))


def test_product_post_basis_exact_on_grid():
    rng = rng_for("product-post-grid")
    backend = ProductBackend(supply_net(), supply_automaton())
    states = list(supply_automaton().states)
    hosts = [Marking(t, q) for q in states
             for t in itertools.product(range(4), repeat=4)]
    targets = [Marking(t, q) for q in states
               for t in itertools.product(range(3), repeat=4)]
    starts = [Marking(tuple(rng.randint(0, 2) for _ in range(4)), q)
              for q in states for _ in range(2)]
    assert_post_basis_exact(backend, hosts, targets, starts)


def test_annotated_product_markers():
    net = supply_net()
    backend = ProductBackend(net, supply_automaton(), annotate=True)
    start = Marking((0, 1, 1, 1), "e", "top")
    seen_markers = set()
    frontier = [start]
    for _ in range(3):
        nxt = []
        for s in frontier:
            for o in backend.post_step(s):
                seen_markers.add(o.marker)
                assert o.marker != "top", "the start marker dies with the first step"
                nxt.append(o)
        frontier = nxt
    assert seen_markers <= {SYSTEM, ENVIRONMENT}
    # steps into 'e' are exactly the environment's
    assert all(o.marker == ENVIRONMENT
               for s in [Marking((0, 5, 5, 5), "ptpt", SYSTEM)]
               for o in backend.post_step(s) if o.state == "e")


def test_annotated_product_post_basis_exact_on_grid():
    rng = rng_for("annot-post-grid")
    backend = ProductBackend(supply_net(), supply_automaton(), annotate=True)
    states = list(supply_automaton().states)
    hosts = [Marking(t, q, mk) for q in states for mk in MARKERS
             for t in itertools.product(range(4), repeat=4)]
    targets = [Marking(t, q, mk) for q in states for mk in MARKERS
               for t in itertools.product(range(3), repeat=4)]
    starts = [Marking(tuple(rng.randint(0, 2) for _ in range(4)), q, mk)
              for q in states for mk in MARKERS]
    assert_post_basis_exact(backend, hosts, targets, starts)
