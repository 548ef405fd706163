"""Constraint semantics and their translation to bases and predicates."""

import pytest

from resilire import model
from resilire.constraints import (And, Exists, GraphDomain, MarkingDomain,
                                  NotExists, Or, VectorPattern, anti_ideal_of,
                                  ideal_basis_of, negate, polarity, satisfies)
from resilire.control import with_control
from resilire.errors import ModelError
from resilire.graphs import GraphClass, graph_of, single_node
from resilire.order import covers, minimize
from resilire.petri import Marking, VectorOrder, make_net
from resilire.rewriting import SubgraphOrder

from conftest import enumerate_class_graphs, fixture_path, random_graph, rng_for


def test_polarity():
    pos = Or((Exists(single_node("a")), And((Exists(single_node("b")),))))
    neg = negate(pos)
    assert polarity(pos) == "positive"
    assert polarity(neg) == "negative"
    assert polarity(And((pos, neg))) == "mixed"


def test_satisfies_graph_exists():
    c = Exists(single_node("n"))
    assert satisfies(graph_of({"a": "n", "b": "m"}, []), c)
    assert not satisfies(single_node("m"), c)


def test_satisfies_vector_constraint():
    c = Exists(VectorPattern((0, 1, 1, 1)))
    assert satisfies(Marking((0, 3, 1, 1), "p"), c)
    assert not satisfies(Marking((5, 0, 1, 1), "p"), c)


def test_de_morgan_on_random_graphs():
    rng = rng_for("demorgan")
    c = Or((Exists(single_node("a")),
            And((Exists(single_node("b")), Exists(graph_of({"u": "a", "v": "b"},
                                                           [("u", "v", "x")]))))))
    for _ in range(60):
        g = random_graph(rng, ["a", "b"], ["x"], 4, 3)
        assert satisfies(g, negate(c)) == (not satisfies(g, c))


def test_inheritance_along_embeddings():
    rng = rng_for("inherit")
    pos = Exists(graph_of({"u": "a", "v": "b"}, [("u", "v", "x")]))
    neg = negate(pos)
    for _ in range(60):
        g = random_graph(rng, ["a", "b"], ["x"], 3, 2)
        nodes = dict(g.nodes)
        nodes["w"] = "a"
        edges = dict(g.edges)
        if g.nodes:
            edges["we"] = ("w", sorted(g.nodes)[0], "x")
        from resilire.graphs import Graph
        h = Graph(nodes, edges)
        if satisfies(g, pos):
            assert satisfies(h, pos)
        if satisfies(h, neg):
            assert satisfies(g, neg)


def plain_graph_domain(max_path=3):
    klass = GraphClass(max_path=max_path)
    return GraphDomain(klass, SubgraphOrder())


def test_ideal_basis_single_pattern():
    dom = plain_graph_domain()
    basis = ideal_basis_of(Exists(single_node("a")), dom)
    assert [g.key() for g in basis.elements] == [single_node("a").key()]


def test_ideal_basis_absorbs_dominated_disjunct():
    dom = plain_graph_domain()
    small = single_node("a")
    big = graph_of({"u": "a", "v": "b"}, [("u", "v", "x")])
    basis = ideal_basis_of(Or((Exists(small), Exists(big))), dom)
    assert [g.key() for g in basis.elements] == [small.key()]


def test_ideal_basis_of_conjunction_is_overlap():
    dom = plain_graph_domain()
    basis = ideal_basis_of(And((Exists(single_node("a")),
                                Exists(single_node("b")))), dom)
    assert len(basis) == 1
    assert sorted(basis.elements[0].nodes.values()) == ["a", "b"]


def test_ideal_basis_agrees_with_satisfaction_exhaustively():
    dom = plain_graph_domain(max_path=2)
    c = Or((And((Exists(single_node("a")), Exists(single_node("b")))),
            Exists(graph_of({"u": "a", "v": "a"}, [("u", "v", "x")]))))
    basis = ideal_basis_of(c, dom)
    universe = enumerate_class_graphs(["a", "b"], ["x"], 4, dom.klass, max_edges=3)
    for g in universe:
        assert covers(basis, g) == satisfies(g, c)


def test_ideal_basis_completes_over_control_states():
    klass = GraphClass(max_path=2, control_labels=frozenset(["q0", "q1"]))
    dom = GraphDomain(klass, SubgraphOrder())
    basis = ideal_basis_of(Exists(single_node("a")), dom)
    assert sorted(klass.control_of(g) for g in basis.elements) == ["q0", "q1"]
    pinned = ideal_basis_of(Exists(with_control(single_node("a"), "q1")), dom)
    assert [klass.control_of(g) for g in pinned.elements] == ["q1"]


def test_ideal_basis_rejects_out_of_class_pattern():
    dom = plain_graph_domain(max_path=0)
    with pytest.raises(ModelError):
        ideal_basis_of(Exists(graph_of({"u": "a", "v": "a"}, [("u", "v", "x")])), dom)


def test_ideal_basis_rejects_negative():
    dom = plain_graph_domain()
    with pytest.raises(ModelError):
        ideal_basis_of(NotExists(single_node("a")), dom)


def test_vector_domain_completion_and_meet():
    net = make_net(["a", "b"], [])
    dom = MarkingDomain(net, VectorOrder(2), states=("q0", "q1"))
    basis = ideal_basis_of(Exists(VectorPattern((1, 0))), dom)
    assert [(m.tokens, m.state) for m in basis.elements] == \
        [((1, 0), "q0"), ((1, 0), "q1")]
    meet = ideal_basis_of(
        And((Exists(VectorPattern((1, 0))), Exists(VectorPattern((0, 2), "q1")))),
        dom)
    assert [(m.tokens, m.state) for m in meet.elements] == [((1, 2), "q1")]
    empty = ideal_basis_of(
        And((Exists(VectorPattern((1, 0), "q0")), Exists(VectorPattern((0, 1), "q1")))),
        dom)
    assert len(empty) == 0


def test_adverse_bad_set_on_path_game():
    built = model.build(model.load(fixture_path("pathgame.json")))
    at_e = built.backend.normalize(with_control(single_node("L"), "e"))
    at_s = built.backend.normalize(with_control(single_node("L"), "s"))
    assert built.bad.contains(at_e)
    assert not built.bad.contains(at_s)


def test_error_mode_is_complement_of_safety():
    net = make_net(["p", "w", "s1", "s2"], [])
    order = VectorOrder(4)
    dom = MarkingDomain(net, order, states=("q0",))
    safe = minimize([Marking((0, 1, 1, 1), "q0")], order)
    bad = anti_ideal_of({"mode": "error"}, dom, safe)
    assert bad.contains(Marking((0, 0, 1, 1), "q0"))
    assert not bad.contains(Marking((0, 1, 1, 1), "q0"))


def test_bad_sets_are_downward_closed_sampled():
    rng = rng_for("downward")
    built = model.build(model.load(fixture_path("adverse_vs_error_petri.json")))
    states = ["q0", "q1"]
    for bad in (built.bad,
                anti_ideal_of({"mode": "error"}, built.domain, built.safe)):
        for _ in range(200):
            big = Marking((rng.randint(0, 3), rng.randint(0, 3)), rng.choice(states))
            small = Marking(tuple(rng.randint(0, x) for x in big.tokens), big.state)
            if bad.contains(big):
                assert bad.contains(small)


def test_custom_mode_requires_negative():
    net = make_net(["a"], [])
    dom = MarkingDomain(net, VectorOrder(1))
    with pytest.raises(ModelError):
        anti_ideal_of({"mode": "custom",
                       "constraint": Exists(VectorPattern((1,)))}, dom)
    bad = anti_ideal_of({"mode": "custom",
                         "constraint": NotExists(VectorPattern((2,)))}, dom)
    assert bad.contains(Marking((1,)))
    assert not bad.contains(Marking((2,)))
