"""Antichain and ideal-basis laws, checked against brute force on grids."""

import itertools

import pytest

from resilire.constraints import (And, Exists, GraphDomain, MarkingDomain, Or,
                                  VectorPattern, ideal_basis_of)
from resilire.errors import BackendMismatch
from resilire.order import Basis, basis_subset, covers, minimize
from resilire.petri import Marking, VectorOrder, make_net

from conftest import rng_for

V4 = VectorOrder(4)
V2 = VectorOrder(2)


def m4(*toks, state=None):
    return Marking(tuple(toks), state)


def grid(order, bound, dim):
    return [Marking(t) for t in itertools.product(range(bound + 1), repeat=dim)]


def up_set(elements, order, universe):
    return {order.key(u) for u in universe
            if any(order.leq(e, u) for e in elements)}


def test_minimize_drops_dominated():
    b = minimize([m4(0, 1, 1, 1), m4(0, 2, 1, 1)], V4)
    assert [s.tokens for s in b.elements] == [(0, 1, 1, 1)]


def test_minimize_empty():
    assert len(minimize([], V4)) == 0


def test_minimize_preserves_upward_closure():
    rng = rng_for("minimize-closure")
    universe = grid(V2, 4, 2)
    for _ in range(60):
        sample = [rng.choice(universe) for _ in range(rng.randint(0, 7))]
        b = minimize(sample, V2)
        assert up_set(sample, V2, universe) == up_set(b.elements, V2, universe)
        # antichain: no element covers another
        for x in b.elements:
            for y in b.elements:
                if x is not y:
                    assert not V2.leq(x, y)


def test_minimize_deterministic_and_idempotent():
    rng = rng_for("minimize-idem")
    universe = grid(V2, 3, 2)
    for _ in range(40):
        sample = [rng.choice(universe) for _ in range(6)]
        b1 = minimize(sample, V2)
        rng.shuffle(sample)
        b2 = minimize(sample, V2)
        assert b1.elements == b2.elements
        assert minimize(b1.elements, V2).elements == b1.elements


def test_covers_examples():
    b = minimize([m4(0, 1, 1, 1)], V4)
    assert covers(b, m4(2, 1, 1, 1))
    assert not covers(Basis(V4, ()), m4(0, 0, 0, 0))
    b2 = minimize([m4(0, 0, 2, 0)], V4)
    assert not covers(b2, m4(0, 0, 1, 2))


def test_covers_matches_pointwise_definition():
    rng = rng_for("covers-def")
    universe = grid(V2, 4, 2)
    for _ in range(40):
        sample = [rng.choice(universe) for _ in range(5)]
        b = minimize(sample, V2)
        s = rng.choice(universe)
        assert covers(b, s) == any(V2.leq(a, s) for a in sample)


def test_covers_dimension_mismatch():
    b = minimize([m4(0, 1, 1, 1)], V4)
    with pytest.raises(BackendMismatch):
        covers(b, Marking((1, 2)))


def test_basis_subset_empty_side():
    assert basis_subset([], minimize([m4(9, 9, 9, 9)], V4))


# Frozen from the published supply-chain run: the ten minimal reachable
# bad states against the bad-state slices of rounds five and six.
REACHABLE_BAD = [
    (0, 1, 1, 1), (0, 5, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3), (0, 1, 2, 0),
    (0, 1, 0, 2), (0, 0, 2, 1), (0, 0, 1, 2), (0, 3, 1, 0), (0, 3, 0, 1),
]
ROUND5_BAD = [(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0), (0, 3, 0, 0)]
ROUND6_BAD = ROUND5_BAD + [(0, 0, 2, 0), (0, 0, 0, 2)]


def test_basis_subset_round5_fails_round6_holds():
    targets = [m4(*t, state="e") for t in REACHABLE_BAD]
    b5 = minimize([m4(*t, state="e") for t in ROUND5_BAD], V4)
    b6 = minimize([m4(*t, state="e") for t in ROUND6_BAD], V4)
    assert not basis_subset(targets, b5)
    assert basis_subset(targets, b6)


def meet(b1, b2, domain, pattern=lambda s: s):
    """Basis of up(b1) & up(b2) through the domain's meet, which the
    library applies to conjunctions of safety patterns."""
    def either(basis):
        return Or(tuple(Exists(pattern(s)) for s in basis.elements))
    return ideal_basis_of(And((either(b1), either(b2))), domain)


V2_DOMAIN = MarkingDomain(make_net(["a", "b"], []), V2)


def vector_meet(b1, b2):
    return meet(b1, b2, V2_DOMAIN, lambda m: VectorPattern(m.tokens))


def test_intersection_componentwise_max():
    b1 = minimize([Marking((1, 0))], V2)
    b2 = minimize([Marking((0, 1))], V2)
    assert [s.tokens for s in vector_meet(b1, b2).elements] == [(1, 1)]


def test_intersection_idempotent():
    b = minimize([Marking((2, 0)), Marking((0, 2))], V2)
    assert vector_meet(b, b).elements == b.elements


def test_intersection_against_grid_enumeration():
    b1 = minimize([Marking((2, 0)), Marking((0, 2))], V2)
    b2 = minimize([Marking((1, 1))], V2)
    both = vector_meet(b1, b2)
    assert sorted(s.tokens for s in both.elements) == [(1, 2), (2, 1)]
    universe = grid(V2, 3, 2)
    truth = up_set(b1.elements, V2, universe) & up_set(b2.elements, V2, universe)
    assert up_set(both.elements, V2, universe) == truth


def test_intersection_random_against_grid():
    rng = rng_for("intersect-grid")
    universe = grid(V2, 4, 2)
    for _ in range(30):
        b1 = minimize([rng.choice(universe) for _ in range(3)], V2)
        b2 = minimize([rng.choice(universe) for _ in range(3)], V2)
        both = vector_meet(b1, b2)
        truth = up_set(b1.elements, V2, universe) & up_set(b2.elements, V2, universe)
        assert up_set(both.elements, V2, universe) == truth


def graph_setup():
    from resilire.graphs import GraphClass
    from resilire.rewriting import SubgraphOrder
    from conftest import enumerate_class_graphs
    klass = GraphClass(max_path=2)
    order = SubgraphOrder()
    universe = enumerate_class_graphs(["a", "b"], ["x"], 4, klass, max_edges=3)
    return klass, order, universe


def test_minimize_preserves_upward_closure_on_graphs():
    rng = rng_for("graph-minimize")
    _klass, order, universe = graph_setup()
    for _ in range(25):
        sample = [rng.choice(universe) for _ in range(rng.randint(0, 5))]
        b = minimize(sample, order)
        assert up_set(sample, order, universe) == up_set(b.elements, order, universe)
        for x in b.elements:
            for y in b.elements:
                if x is not y:
                    assert not order.leq(x, y)


def test_graph_intersection_against_universe():
    rng = rng_for("graph-intersect")
    klass, order, universe = graph_setup()
    domain = GraphDomain(klass, order)
    small = [g for g in universe if len(g.nodes) <= 2]
    for _ in range(12):
        b1 = minimize([rng.choice(small) for _ in range(2)], order)
        b2 = minimize([rng.choice(small) for _ in range(2)], order)
        both = meet(b1, b2, domain)
        truth = up_set(b1.elements, order, universe) & \
            up_set(b2.elements, order, universe)
        assert up_set(both.elements, order, universe) == truth
