"""Antichain and ideal-basis laws, checked against brute force on grids."""

import itertools
from dataclasses import replace

import pytest

from resilire.constraints import And, Exists, Or, ideal_basis_of
from resilire.errors import BackendMismatch
from resilire.order import Antichain, Basis, Wqo, basis_subset, covers, minimize
from resilire.graphs import Graph
from resilire.petri import MARKERS, Marking, PetriBackend, VectorOrder, make_net
from resilire.rewriting import GraphBackend, SubgraphOrder

from conftest import random_graph, rng_for
from test_graphs import random_subgraph, shuffled_copy

V4 = VectorOrder(4)
V4Q = VectorOrder(4, has_state=True)
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
    _klass, graph_order, graphs = graph_setup()
    for order, universe in ((V2, grid(V2, 3, 2)), (graph_order, graphs)):
        for _ in range(40):
            sample = [rng.choice(universe) for _ in range(6)]
            b1 = minimize(sample, order)
            rng.shuffle(sample)
            b2 = minimize(sample, order)
            assert b1.elements == b2.elements
            assert minimize(b1.elements, order).elements == b1.elements
            assert merged(sample, rng.randint(0, 6), order).elements == \
                reference_minimize(sample, order).elements


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
    b5 = minimize([m4(*t, state="e") for t in ROUND5_BAD], V4Q)
    b6 = minimize([m4(*t, state="e") for t in ROUND6_BAD], V4Q)
    assert not basis_subset(targets, b5)
    assert basis_subset(targets, b6)


# The quadratic minimize/covers: the first state under each key that no
# state under another key lies below, in no processing order; every
# state against the basis.
def reference_minimize(states, order):
    by_key = {}
    for s in states:
        by_key.setdefault(order.key(s), s)
    return Basis(order, tuple(
        s for k, s in sorted(by_key.items())
        if not any(order.leq(t, s) for j, t in by_key.items() if j != k)))


def reference_covers(basis, state):
    return any(basis.order.leq(b, state) for b in basis.elements)


def merged(states, cut, order):
    """The basis of `states` merged into an `Antichain` of its first
    `cut` elements: the same basis as minimizing them all."""
    live = Antichain(order, minimize(states[:cut], order))
    live.merge(states[cut:])
    return live.basis()


V3 = VectorOrder(3, has_state=True, has_marker=True)
V3_PLAIN = VectorOrder(3)


def random_product_markings(rng, count, states=("p", "q"), markers=MARKERS):
    """Product markings over few token vectors, so that equal vectors
    recur under different (state, marker) pairs, and with repeats of whole markings."""
    vectors = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(8)]
    out = []
    for _ in range(count):
        if out and rng.random() < 0.15:
            out.append(replace(rng.choice(out)))
        else:
            out.append(Marking(rng.choice(vectors), rng.choice(states),
                               rng.choice(markers)))
    return out


class RecordingOrder(Wqo):
    """`V3` on the default scanning antichain index, recording every
    pair it compares."""

    def __init__(self):
        self.pairs = []

    def leq(self, a, b):
        self.pairs.append((a, b))
        return V3.leq(a, b)

    def key(self, a):
        return V3.key(a)


def test_blocked_minimize_and_covers_match_reference():
    rng = rng_for("blocked-reference")
    queries = 0
    for trial in range(200):
        # every tenth sample is from a plain net: no state, no marker
        plain = trial % 10 == 0
        shape = dict(states=(None,), markers=(None,)) if plain else {}
        order = V3_PLAIN if plain else V3
        sample = random_product_markings(rng, rng.randint(0, 24), **shape)
        got, want = minimize(sample, order), reference_minimize(sample, order)
        assert got.elements == want.elements
        # ideal steps stream repeated candidates into `minimize`
        assert minimize(iter(sample + sample), order).elements == want.elements
        cut = rng.randint(0, len(sample))
        assert merged(sample, cut, order).elements == want.elements
        for s in random_product_markings(rng, 5, **shape) + sample[:3]:
            queries += 1
            assert covers(got, s) == reference_covers(want, s)
        assert basis_subset(sample, got)
    assert queries >= 500


def test_minimize_into_a_base_never_compares_two_base_elements():
    order = RecordingOrder()
    rng = rng_for("base-recording")
    against_base = 0
    for _ in range(50):
        pool = random_product_markings(rng, 24)
        base = minimize(rng.sample(pool, 12), order)
        order.pairs.clear()
        Antichain(order, base).merge(rng.sample(pool, 12))
        # a candidate under a base element's key is dropped uncompared,
        # so two base objects in one pair are two base elements
        ids = {id(b) for b in base}
        assert not any(id(a) in ids and id(b) in ids for a, b in order.pairs)
        against_base += sum(id(a) in ids or id(b) in ids for a, b in order.pairs)
    assert against_base >= 100


def one_token_off(markings):
    """Each marking with one coordinate one token up, and one down
    where it has a token."""
    out = []
    for m in markings:
        for i, v in enumerate(m.tokens):
            for w in {v + 1, max(v - 1, 0)} - {v}:
                out.append(replace(m, tokens=m.tokens[:i] + (w,) + m.tokens[i + 1:]))
    return out


def assert_live_antichain_matches_reference(order, draw, near, rng, merges=6):
    """Random merges into one `Antichain`: after each, its basis is the
    reference basis of everything merged so far, the merge returns
    exactly the elements under keys that were not there before, and
    `covers` answers as the reference on the batch and on the states
    that `near` gives for it.  Counts the merges that added elements
    and those that removed some."""
    base = draw(rng.randint(0, 8))
    live = Antichain(order, minimize(base, order))
    seen = list(base)
    added = removed = 0
    for _ in range(merges):
        before = {order.key(b) for b in live.basis()}
        batch = draw(rng.randint(0, 10))
        fresh = live.merge(iter(batch))
        seen += batch
        want = reference_minimize(seen, order)
        assert live.basis().elements == want.elements
        assert fresh == [b for b in want if order.key(b) not in before]
        for q in batch + near(batch):
            assert live.covers(q) == reference_covers(want, q)
        added += bool(fresh)
        removed += not before <= {order.key(b) for b in want}
    return added, removed


def test_live_antichain_merges_match_reference():
    rng = rng_for("live-antichain")
    _klass, graph_order, graphs = graph_setup()
    draws = (
        (V3_PLAIN, lambda n: random_product_markings(rng, n, states=(None,), markers=(None,)),
         one_token_off),
        (V3, lambda n: random_product_markings(rng, n), one_token_off),
        (graph_order, lambda n: [rng.choice(graphs) for _ in range(n)],
         lambda batch: [rng.choice(graphs) for _ in range(4)]),
    )
    added = removed = 0
    for trial in range(120):
        order, draw, near = draws[trial % len(draws)]
        counts = assert_live_antichain_matches_reference(order, draw, near, rng)
        added, removed = added + counts[0], removed + counts[1]
    assert added > 300 and removed > 150


V6 = VectorOrder(6, has_state=True, has_marker=True)
V6_PLAIN = VectorOrder(6)


def past_the_rows(markings):
    """Each marking with one coordinate three tokens up: past the end of
    every row when the stored vectors hold at most 4 tokens there."""
    return [replace(m, tokens=m.tokens[:i] + (v + 3,) + m.tokens[i + 1:])
            for m in markings for i, v in enumerate(m.tokens) if v >= 2]


def test_token_trie_matches_quadratic_reference():
    """Minimization through the marking index, and the index's own
    `covers` and `above`, agree with a plain `leq` scan, also after
    removals whose slots later additions reuse.  Vectors recur under
    different (state, marker) pairs, and queries sit one token off the
    stored vectors or past the end of a row."""
    rng = rng_for("trie-reference")
    answers, removed, tops = [], 0, []
    for trial in range(150):
        plain = trial % 5 == 0
        order = V6_PLAIN if plain else V6
        states, markers = ((None,), (None,)) if plain else (("p", "q"), MARKERS)
        vectors = [tuple(rng.randint(0, 4) for _ in range(6))
                   for _ in range(rng.randint(1, 12))]
        sample = [Marking(rng.choice(vectors), rng.choice(states), rng.choice(markers))
                  for _ in range(rng.randint(0, 60))]
        got, want = minimize(sample, order), reference_minimize(sample, order)
        assert got.elements == want.elements
        distinct = list({order.key(m): m for m in sample}.values())
        rng.shuffle(distinct)
        half = len(distinct) // 2
        stored, later = distinct[:half], distinct[half:]
        index = order.antichain_index()
        for m in stored:
            index.add(m)
        gone = rng.sample(stored, len(stored) // 3)
        for m in gone:
            index.remove(m)
        stored = [m for m in stored if m not in gone] + later[:len(gone)]
        for m in later[:len(gone)]:
            index.add(m)
        removed += len(gone)
        for q in sample + one_token_off(sample[:10]) + past_the_rows(sample[:4]):
            under = [t for t in stored if order.leq(t, q)]
            answers.append(index.covers(q))
            assert answers[-1] == bool(under)
            over = {order.key(t) for t in stored if order.leq(q, t)}
            assert {order.key(t) for t in index.above(q)} == over
            tops.append(len(over))
    assert 0.2 < sum(answers) / len(answers) < 0.8
    assert removed > 200
    assert 0.2 < sum(map(bool, tops)) / len(tops) < 0.8 and max(tops) >= 3


def test_index_below_filters_the_added_states_in_the_order_added():
    """`below` of an index that never removed a state gives the added
    states under the query in the order they came, as a filter over
    them does: on product markings (`_TokenMasks`), on graphs
    (`_LabelMasks`) and on the default scanning index."""
    rng = rng_for("index-below")
    graph_order = SubgraphOrder()
    multiple = {"markings": 0, "graphs": 0, "scan": 0}
    for trial in range(90):
        kind = ("markings", "graphs", "scan")[trial % 3]
        if kind == "graphs":
            hosts = [random_graph(rng, ["a", "b"], ["x", "y"], 5, 6) for _ in range(6)]
            added = [random_subgraph(rng, rng.choice(hosts)) for _ in range(12)]
            queries = hosts + [random_subgraph(rng, h) for h in hosts]
            order, index = graph_order, graph_order.antichain_index()
        else:
            added = random_product_markings(rng, 30)
            queries = added[:10] + one_token_off(added[:6]) + random_product_markings(rng, 10)
            order = V3
            index = V3.antichain_index() if kind == "markings" else Wqo.antichain_index(V3)
        for t in added:
            index.add(t)
        for s in queries:
            want = [id(t) for t in added if order.leq(t, s)]
            assert [id(t) for t in index.below(s)] == want
            multiple[kind] += len(want) >= 2
    assert min(multiple.values()) >= 20, multiple


def test_token_trie_refuses_markings_of_another_shape():
    for order, good, odd in (
            (V3, Marking((1, 2, 3), "p", "sys"), Marking((1, 2, 3), "p")),
            (V3, Marking((1, 2, 3), "p", "sys"), Marking((1, 2), "p", "sys")),
            (V3_PLAIN, Marking((1, 2, 3)), Marking((1, 2, 3), "p")),
            (V3_PLAIN, Marking((1, 2, 3)), Marking((1, 2)))):
        empty, index = order.antichain_index(), order.antichain_index()
        index.add(good)
        for target in (empty, index):
            for ask in (target.covers, target.above, target.add):
                with pytest.raises(BackendMismatch):
                    ask(odd)
        assert index.covers(good) and not empty.covers(good)
        assert index.above(good) == [good] and empty.above(good) == []


def test_vector_leq_refuses_mismatched_markings():
    a = Marking((1, 2, 3), "p", "sys")
    for b in (Marking((1, 2), "p", "sys"), Marking((1, 2, 3, 4), "p", "sys"),
              Marking((1, 2, 3), None, "sys"), Marking((1, 2, 3), "p", None),
              (1, 2, 3)):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(BackendMismatch):
                V3.leq(x, y)
    with pytest.raises(BackendMismatch):
        V3.leq(Marking((1, 2)), Marking((1, 2)))
    # markings that agree with each other but not with the order's shape
    for order, m in ((V3, Marking((1, 2, 3))), (V3, Marking((1, 2, 3), "p")),
                     (V3_PLAIN, Marking((1, 2, 3), "p")),
                     (V3_PLAIN, Marking((1, 2, 3), None, "sys"))):
        with pytest.raises(BackendMismatch, match="presence"):
            order.leq(m, m)


def test_covers_dimension_mismatch_in_an_empty_block():
    b = minimize([m4(0, 1, 1, 1, state="e")], V4Q)
    with pytest.raises(BackendMismatch):
        covers(b, Marking((1, 2), "q"))
    with pytest.raises(BackendMismatch):
        covers(Basis(V4, ()), Marking((1, 2)))


def test_blocked_order_refuses_markings_of_another_shape():
    # Such a marking would sit alone in a block of its own, so no
    # comparison would ever see it: minimize, covers and basis_subset
    # must refuse it themselves.
    plain = minimize([m4(0, 1, 1, 1)], V4)
    stated = minimize([m4(0, 1, 1, 1, state="e")], V4Q)
    for basis, odd in ((plain, m4(1, 1, 1, 1, state="e")),
                       (plain, Marking((1, 1, 1, 1), None, "sys")),
                       (stated, m4(1, 1, 1, 1)),
                       (stated, Marking((1, 1, 1, 1), "e", "sys"))):
        with pytest.raises(BackendMismatch, match="presence"):
            covers(basis, odd)
        with pytest.raises(BackendMismatch, match="presence"):
            basis_subset([odd], basis)
        with pytest.raises(BackendMismatch, match="presence"):
            minimize(list(basis) + [odd], basis.order)


def meet(b1, b2, backend):
    """Basis of up(b1) & up(b2) through the backend's meet, which the
    library applies to conjunctions of safety patterns."""
    def either(basis):
        return Or(tuple(Exists(s) for s in basis.elements))
    return ideal_basis_of(And((either(b1), either(b2))), backend)


V2_BACKEND = PetriBackend(make_net(["p0", "p1"], []))


def vector_meet(b1, b2):
    return meet(b1, b2, V2_BACKEND)


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
    from conftest import enumerate_class_graphs
    klass = GraphClass(max_path=2)
    order = SubgraphOrder()
    universe = enumerate_class_graphs(["a", "b"], ["x"], 4, klass, max_edges=3)
    return klass, order, universe


def assert_keys_name_classes(order, pairs):
    """`key(a) == key(b)` exactly when each of a, b lies below the other,
    and `key(a) < key(b)` when only a lies below b: the order in which
    `Antichain.merge` goes.  Returns how many pairs had equal keys and
    how many compared one way only."""
    equal = one_way = 0
    for a, b in pairs:
        there, back = order.leq(a, b), order.leq(b, a)
        assert (order.key(a) == order.key(b)) == (there and back), (a, b)
        if there != back:
            assert (order.key(a) < order.key(b)) == there, (a, b)
        equal += there and back
        one_way += there != back
    return equal, one_way


def test_vector_keys_name_order_classes():
    """Markings of every shape, whose vectors recur under other
    (state, marker) pairs."""
    rng = rng_for("vector-keys")
    shapes = ((V3_PLAIN, (None,), (None,)), (VectorOrder(3, has_state=True), ("p", "q"), (None,)),
              (V3, ("p", "q"), MARKERS))
    equal = one_way = 0
    for order, states, markers in shapes:
        def draw():
            return Marking(tuple(rng.randint(0, 2) for _ in range(3)),
                           rng.choice(states), rng.choice(markers))
        pairs = [(draw(), draw()) for _ in range(300)]
        pairs += [(a, replace(a)) for a, _b in pairs[:50]]
        counts = assert_keys_name_classes(order, pairs)
        equal, one_way = equal + counts[0], one_way + counts[1]
    assert equal > 150 and one_way > 150


def random_multigraph(rng):
    """A graph whose edges may be loops and may run in parallel."""
    nodes = {"v%d" % i: rng.choice("ab") for i in range(rng.randint(1, 4))}
    ends = sorted(nodes)
    edges = {"f%d" % j: (rng.choice(ends), rng.choice(ends), rng.choice("xy"))
             for j in range(rng.randint(0, 6))}
    if edges:
        edges["f"] = rng.choice(list(edges.values()))
    return Graph(nodes, edges)


def test_subgraph_keys_name_order_classes():
    """Random graphs, with loops and parallel edges or without,
    isomorphic copies under new ids, and subgraphs."""
    rng = rng_for("subgraph-keys")
    order = SubgraphOrder()
    pairs = []
    for i in range(300):
        g = random_multigraph(rng) if i % 2 else random_graph(rng, ["a", "b"], ["x", "y"], 4, 5)
        sub = random_subgraph(rng, g)
        pairs += [(g, random_graph(rng, ["a", "b"], ["x", "y"], 4, 5)),
                  (g, shuffled_copy(g, rng)), (shuffled_copy(sub, rng), g),
                  (g, sub)]
    equal, one_way = assert_keys_name_classes(order, pairs)
    assert equal > 400 and one_way > 200
    assert sum(s == t for g, _h in pairs for s, t, _l in g.edges.values()) > 100


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
    backend = GraphBackend([], klass)
    small = [g for g in universe if len(g.nodes) <= 2]
    for _ in range(12):
        b1 = minimize([rng.choice(small) for _ in range(2)], order)
        b2 = minimize([rng.choice(small) for _ in range(2)], order)
        both = meet(b1, b2, backend)
        truth = up_set(b1.elements, order, universe) & \
            up_set(b2.elements, order, universe)
        assert up_set(both.elements, order, universe) == truth
