"""Constraint semantics and their translation to bases and predicates."""

import itertools
import json
from dataclasses import replace

import pytest

from resilire import model
from resilire.constraints import (And, BadSet, Exists, NotExists, Or, ideal_basis_of,
                                  negate)
from resilire.control import make_automaton, with_control
from resilire.engine import forward_states
from resilire.errors import ModelError
from resilire.graphs import GraphClass, graph_of, quotient_isolated, single_node
from resilire.order import covers
from resilire.petri import (ENVIRONMENT, MARKERS, Marking, PetriBackend, ProductBackend,
                            make_net)
from resilire.rewriting import GraphBackend

import petri_graphs
from conftest import (enumerate_class_graphs, fixture_path, random_graph, rng_for,
                      satisfies)


def test_satisfies_graph_exists():
    c = Exists(single_node("n"))
    assert satisfies(graph_of({"a": "n", "b": "m"}, []), c)
    assert not satisfies(single_node("m"), c)


def test_satisfies_vector_constraint():
    c = Exists(Marking((0, 1, 1, 1)))
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


def plain_graph_backend(max_path=3):
    return GraphBackend([], GraphClass(max_path=max_path))


def product_backend(places, states, annotate=False):
    """A `ProductBackend` over `places` places p0, p1, ... and the
    automaton `states`, with no transitions."""
    net = make_net(["p%d" % i for i in range(places)], [])
    return ProductBackend(net, make_automaton(states, states[0], []), annotate)


def test_ideal_basis_single_pattern():
    dom = plain_graph_backend()
    basis = ideal_basis_of(Exists(single_node("a")), dom)
    assert [g.key() for g in basis.elements] == [single_node("a").key()]


def test_ideal_basis_absorbs_dominated_disjunct():
    dom = plain_graph_backend()
    small = single_node("a")
    big = graph_of({"u": "a", "v": "b"}, [("u", "v", "x")])
    basis = ideal_basis_of(Or((Exists(small), Exists(big))), dom)
    assert [g.key() for g in basis.elements] == [small.key()]


def test_ideal_basis_of_conjunction_is_overlap():
    dom = plain_graph_backend()
    basis = ideal_basis_of(And((Exists(single_node("a")),
                                Exists(single_node("b")))), dom)
    assert len(basis) == 1
    assert sorted(basis.elements[0].nodes.values()) == ["a", "b"]


def test_ideal_basis_agrees_with_satisfaction_exhaustively():
    dom = plain_graph_backend(max_path=2)
    c = Or((And((Exists(single_node("a")), Exists(single_node("b")))),
            Exists(graph_of({"u": "a", "v": "a"}, [("u", "v", "x")]))))
    basis = ideal_basis_of(c, dom)
    universe = enumerate_class_graphs(["a", "b"], ["x"], 4, dom.klass, max_edges=3)
    for g in universe:
        assert covers(basis, g) == satisfies(g, c)


def test_ideal_basis_completes_over_control_states():
    klass = GraphClass(max_path=2, control_labels=frozenset(["q0", "q1"]))
    dom = GraphBackend([], klass)
    basis = ideal_basis_of(Exists(single_node("a")), dom)
    assert sorted(klass.control_of(g) for g in basis.elements) == ["q0", "q1"]
    pinned = ideal_basis_of(Exists(with_control(single_node("a"), "q1")), dom)
    assert [klass.control_of(g) for g in pinned.elements] == ["q1"]


def bad_set(c, dom):
    """The bad set of the negative constraint `c`, read as `model.build`
    reads every `bad` section: the complement of its negation's ideal."""
    good = ideal_basis_of(negate(c), dom, "/bad/constraint")
    return BadSet(lambda s: not covers(good, s))


def test_ideal_basis_rejects_out_of_class_pattern():
    dom = plain_graph_backend(max_path=0)
    outside = Exists(graph_of({"u": "a", "v": "a"}, [("u", "v", "x")]))
    inside = Exists(single_node("a"))
    # each constraint with the pointer of its outside leaf
    for c, leaf in ((outside, ""), (And((inside, outside)), "/args/1"),
                    (Or((inside, outside)), "/args/1"),
                    (And((inside, Or((outside, inside)))), "/args/1/args/0")):
        with pytest.raises(ModelError, match="outside the state class") as err:
            ideal_basis_of(c, dom)
        assert [loc for loc, _msg in err.value.issues] == ["/safety" + leaf]
        # a custom bad set is read through the ideal of its negation, so a
        # `not_exists` leaf that no class member contains is refused too
        with pytest.raises(ModelError, match="outside the state class") as err:
            bad_set(negate(c), dom)
        assert [loc for loc, _msg in err.value.issues] == ["/bad/constraint" + leaf]


def test_ideal_basis_rejects_negative():
    dom = plain_graph_backend()
    a, b = single_node("a"), single_node("b")
    # each constraint with the pointer of its negative leaf
    for c, leaf in ((NotExists(a), ""), (Or((Exists(a), NotExists(b))), "/args/1"),
                    (And((Exists(a), NotExists(b))), "/args/1"),
                    (Or((Exists(a), And((NotExists(b),)))), "/args/1/args/0")):
        with pytest.raises(ModelError, match="positive") as err:
            ideal_basis_of(c, dom)
        assert [loc for loc, _msg in err.value.issues] == ["/safety%s/op" % leaf]


def test_vector_domain_completion_and_meet():
    dom = product_backend(2, ("q0", "q1"))
    basis = ideal_basis_of(Exists(Marking((1, 0))), dom)
    assert [(m.tokens, m.state) for m in basis.elements] == \
        [((1, 0), "q0"), ((1, 0), "q1")]
    meet = ideal_basis_of(
        And((Exists(Marking((1, 0))), Exists(Marking((0, 2), "q1")))),
        dom)
    assert [(m.tokens, m.state) for m in meet.elements] == [((1, 2), "q1")]
    empty = ideal_basis_of(
        And((Exists(Marking((1, 0), "q0")), Exists(Marking((0, 1), "q1")))),
        dom)
    assert len(empty) == 0


def random_positive(rng, leaf, depth=2):
    """A random and/or tree of `exists` leaves drawn by `leaf(rng)`."""
    if depth == 0 or rng.random() < 0.4:
        return Exists(leaf(rng))
    parts = tuple(random_positive(rng, leaf, depth - 1)
                  for _ in range(rng.randint(1, 3)))
    return And(parts) if rng.random() < 0.5 else Or(parts)


def on_leaves(c, f):
    """`c` with each leaf's pattern replaced by its image under `f`."""
    if isinstance(c, Exists):
        return Exists(f(c.pattern))
    return type(c)(tuple(on_leaves(p, f) for p in c.parts))


def test_constraint_bases_agree_across_backends():
    """A positive constraint over markings and its image in the discrete
    token-graph encoding (`petri_graphs`) get bases that decode one to
    one onto each other, through both backends' `complete` and `meet`.
    The star encoding is left out: its class admits a token node joined
    to two hubs, which no marking encodes, and a meet of two star graphs
    glues exactly that graph."""
    states = ("q0", "q1")
    petri = product_backend(2, states)
    places = petri.net.places
    graph = petri_graphs.graph_backend(petri, star=False)
    rng = rng_for("cross-backend-constraints")

    def leaf(rng):
        return Marking((rng.randint(0, 2), rng.randint(0, 2)),
                       rng.choice((None,) + states))
    for _ in range(200):
        c = random_positive(rng, leaf)
        want = ideal_basis_of(c, petri)
        got = ideal_basis_of(
            on_leaves(c, lambda m: petri_graphs.encode(m, places, False)), graph)
        decoded = {petri_graphs.decode(g, places, frozenset(states), False)
                   for g in got.elements}
        assert len(decoded) == len(got.elements), c
        assert decoded == set(want.elements), c


def test_and_safety_meets_through_build():
    """A conjunction in `safety` is met by the built backend: markings
    take the componentwise max where the states agree, graphs the
    gluings of their overlaps."""
    doc = json.loads(open(fixture_path("supplychain.json")).read())
    doc["safety"] = {"op": "and", "args": [doc["safety"], {"op": "or", "args": [
        {"op": "exists", "marking": {"store1": 2}},
        {"op": "exists", "state": "e", "marking": {"store2": 2}}]}]}
    built = model.build(model.from_dict(doc))
    want = [{"marking": {"warehouse": 1, "store1": 2, "store2": 1}, "state": q}
            for q in doc["automaton"]["states"]]
    want.append({"marking": {"warehouse": 1, "store1": 1, "store2": 2}, "state": "e"})
    assert len(built.safe) == 9
    assert sorted(map(json.dumps, built.basis_to_json(built.safe))) == \
        sorted(json.dumps(w) for w in want)

    # a one-node pattern below the triangle leaves the basis as it is
    doc = json.loads(open(fixture_path("adverse_vs_error.json")).read())
    plain = model.build(model.from_dict(doc))
    doc["safety"] = {"op": "and", "args": [doc["safety"], {
        "op": "exists", "graph": {"nodes": [{"id": "n", "label": "v"}], "edges": []}}]}
    built = model.build(model.from_dict(doc))
    assert [g.key() for g in built.safe.elements] == \
        [g.key() for g in plain.safe.elements]


def test_and_safety_meet_skips_the_ids_of_the_pattern():
    """The meet names the items it adds with ids the other pattern lacks,
    so patterns written with "new:n<i>" / "new:e<i>" ids give the basis
    they give under any other ids."""
    text = open(fixture_path("pathgame.json")).read()

    def safe_keys(n0, n1, n2, e0, e1):
        d = json.loads(text)
        d["safety"] = {"op": "and", "args": [d["safety"], {"op": "exists", "graph": {
            "nodes": [{"id": n0, "label": "L"}, {"id": n1, "label": "pt"},
                      {"id": n2, "label": "pt"}],
            "edges": [{"id": e0, "src": n0, "tgt": n1, "label": "a"},
                      {"id": e1, "src": n0, "tgt": n2, "label": "a"}]}}]}
        return [g.key() for g in model.build(model.from_dict(d)).safe.elements]

    want = safe_keys("u", "w", "z", "f", "g")
    assert len(want) == 6
    assert safe_keys("new:n0", "new:n1", "new:n2", "new:e0", "new:e1") == want
    assert safe_keys("new:n1", "new:n0", "u", "new:e1", "new:e0") == want


def test_adverse_bad_set_on_path_game():
    built = model.build(model.load(fixture_path("pathgame.json")))
    quotient = built.backend.klass.quotient_labels
    at_e = quotient_isolated(with_control(single_node("L"), "e"), quotient).canonical()
    at_s = quotient_isolated(with_control(single_node("L"), "s"), quotient).canonical()
    assert built.bad.contains(at_e)
    assert not built.bad.contains(at_s)


ADVERSE_SPECS = {
    "env": lambda states: {"env_marker": True},
    "first+env": lambda states: {"states": states[:1], "env_marker": True},
    "all": lambda states: {"states": states},
    "all+env": lambda states: {"states": states, "env_marker": True},
}


@pytest.mark.parametrize("spec", sorted(ADVERSE_SPECS))
@pytest.mark.parametrize("name", ["adverse_vs_error_petri.json", "supplychain.json",
                                  "adverse_vs_error.json"])
def test_adverse_bad_set_observes_states_and_environment_marker(name, spec):
    # an annotated copy of the fixture: a state is bad iff its control
    # state is observed or its marker is the environment's
    doc = json.loads(open(fixture_path(name)).read())
    doc["annotate"] = True
    doc.pop("b_post")
    states = doc["automaton"]["states"]
    doc["bad"] = dict(ADVERSE_SPECS[spec](states), mode="adverse")
    built = model.build(model.from_dict(doc))
    observed = set(doc["bad"].get("states", ()))
    env_marker = doc["bad"].get("env_marker", False)
    if doc["kind"] == "petri":
        width = len(doc["petri"]["places"])
        universe = [(Marking(tokens, q, mk), q, mk)
                    for tokens in itertools.product(range(3), repeat=width)
                    for q in states for mk in MARKERS]
    else:
        klass = built.backend.klass
        universe = [(g, klass.control_of(g), klass.marker_of(g))
                    for layer in forward_states(built.start, built.backend, 6)
                    for g in layer]
    for s, q, mk in universe:
        expected = q in observed or (env_marker and mk == ENVIRONMENT)
        assert built.bad.contains(s) == expected, (s, spec)


def test_error_mode_is_complement_of_safety():
    dom = product_backend(4, ("q0",))
    bad = bad_set(negate(Exists(Marking((0, 1, 1, 1), "q0"))), dom)
    assert bad.contains(Marking((0, 0, 1, 1), "q0"))
    assert not bad.contains(Marking((0, 1, 1, 1), "q0"))
    # the loader reads error mode as the negation of `safety`
    doc = json.loads(open(fixture_path("adverse_vs_error_petri.json")).read())
    doc["bad"] = {"mode": "error"}
    loaded = model.from_dict(doc)
    assert loaded.bad == negate(loaded.safety)


def test_bad_sets_are_downward_closed_sampled():
    rng = rng_for("downward")
    built = model.build(model.load(fixture_path("adverse_vs_error_petri.json")))
    states = ["q0", "q1"]
    for bad in (built.bad,
                bad_set(negate(built.doc.safety), built.backend)):
        for _ in range(200):
            big = Marking((rng.randint(0, 3), rng.randint(0, 3)), rng.choice(states))
            small = Marking(tuple(rng.randint(0, x) for x in big.tokens), big.state)
            if bad.contains(big):
                assert bad.contains(small)


def test_custom_mode_requires_negative():
    dom = PetriBackend(make_net(["p0"], []))
    with pytest.raises(ModelError):
        bad_set(Exists(Marking((1,))), dom)
    bad = bad_set(NotExists(Marking((2,))), dom)
    assert bad.contains(Marking((1,)))
    assert not bad.contains(Marking((2,)))


# -- a custom bad set against the leaf-by-leaf reading -------------------------


def resolve(c, pointer, root):
    """The part of constraint `c` at `pointer`, `c` itself being at `root`."""
    assert pointer.startswith(root)
    steps = pointer[len(root):].split("/")[1:]
    for key, index in zip(steps[::2], steps[1::2]):
        assert key == "args"
        c = c.parts[int(index)]
    assert len(steps) % 2 == 0
    return c


def random_negative(rng, leaf, depth=2):
    """A random and/or tree of `not_exists` leaves drawn by `leaf(rng)`."""
    if depth == 0 or rng.random() < 0.4:
        return NotExists(leaf(rng))
    parts = tuple(random_negative(rng, leaf, depth - 1)
                  for _ in range(rng.randint(1, 3)))
    return And(parts) if rng.random() < 0.5 else Or(parts)


def graph_case(klass):
    """(backend, universe, leaf) for a graph class over labels a, b: the
    universe is every normal class graph up to three nodes, and a leaf
    is a small random pattern free of isolated quotient-label nodes,
    with a control node when the class has control labels."""
    dom = GraphBackend([], klass)
    bare = replace(klass, control_labels=frozenset())
    normal = [g for g in enumerate_class_graphs(["a", "b"], ["x"], 3,
                                                bare, max_edges=3)
              if quotient_isolated(g, klass.quotient_labels).key() == g.key()]
    states = sorted(klass.control_labels)
    universe = [with_control(g, q) for g in normal for q in states or [None]]

    def leaf(rng):
        p = quotient_isolated(random_graph(rng, ["a", "b"], ["x"], 2, 2),
                              klass.quotient_labels)
        return with_control(p, rng.choice([None] + states))
    return dom, universe, leaf


def marking_case():
    """A Petri product over two places, two control states and every
    marker, with wildcard state and marker in half the leaves."""
    states = ("q0", "q1")
    dom = product_backend(2, states, annotate=True)
    universe = [Marking((x, y), q, mk) for x in range(4) for y in range(4)
                for q in states for mk in MARKERS]

    def leaf(rng):
        return Marking((rng.randint(0, 2), rng.randint(0, 2)),
                       rng.choice((None, None) + states),
                       rng.choice((None, None, None) + MARKERS))
    return dom, universe, leaf


CUSTOM_CASES = {
    "plain": lambda: graph_case(GraphClass(max_path=2)),
    "control": lambda: graph_case(GraphClass(max_path=2,
                                             control_labels=frozenset(["q0", "q1"]))),
    "counts": lambda: graph_case(GraphClass(max_path=2,
                                            node_count=(("a", (1, 1)),))),
    "quotient": lambda: graph_case(GraphClass(max_path=2,
                                              quotient_labels=frozenset(["b"]))),
    "petri": marking_case,
}


@pytest.mark.parametrize("case", sorted(CUSTOM_CASES))
def test_custom_bad_set_agrees_with_leaf_by_leaf_reading(case):
    dom, universe, leaf = CUSTOM_CASES[case]()
    rng = rng_for("custom-bad:" + case)
    refused = 0
    for _ in range(25):
        c = random_negative(rng, leaf)
        try:
            bad = bad_set(c, dom)
        except ModelError as err:
            # only a leaf that no class member contains is refused, at
            # its own pointer
            [(loc, msg)] = err.issues
            assert isinstance(resolve(c, loc, "/bad/constraint"), NotExists), loc
            assert "outside the state class" in msg
            refused += 1
            continue
        for s in universe:
            assert bad.contains(s) == satisfies(s, c), (c, s)
    assert refused < 25
