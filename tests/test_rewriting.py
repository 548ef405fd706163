"""SPO application, overlap enumeration, and the backward step."""

import itertools

import pytest

from resilire.graphs import Graph, GraphClass, exists_embedding, graph_of, single_node
from resilire.limits import Limits
from resilire.order import basis_subset, covers, minimize
from resilire.petri import Marking, enabled, fire, make_net
from resilire.rewriting import (GraphBackend, Rule, SubgraphOrder, apply_rule,
                                identity_rule, matches, overlaps,
                                rule_predecessor_basis, successors)

from conftest import enumerate_class_graphs, random_graph, rng_for

FREE = GraphClass()


def token_move_rule(src_label, dst_label, name):
    """Move one token node from a src-labeled place to a dst-labeled one."""
    left = graph_of(
        {"p": src_label, "w": dst_label, "tok": "t"},
        [("p", "w", "x"), ("p", "tok", "x")],
    )
    right = graph_of(
        {"p": src_label, "w": dst_label, "tok2": "t"},
        [("p", "w", "x"), ("w", "tok2", "x")],
    )
    return Rule(name, "sys", left, right,
                {"p": "p", "w": "w"}, {"e0": "e0"})


def test_apply_moves_token():
    rule = token_move_rule("P", "W", "transport")
    host = graph_of(
        {"P": "P", "W": "W", "S1": "S1", "S2": "S2",
         "tP": "t", "tW": "t", "t11": "t", "t12": "t", "t21": "t"},
        [("P", "W", "x"), ("W", "S1", "x"), ("W", "S2", "x"),
         ("P", "tP", "x"), ("W", "tW", "x"),
         ("S1", "t11", "x"), ("S1", "t12", "x"), ("S2", "t21", "x")],
    )
    ms = [m for m in matches(rule, host)]
    assert len(ms) == 1
    result = apply_rule(rule, host, ms[0])
    assert len(result.nodes) == 9 and len(result.edges) == 8

    def tokens_on(g, place_label):
        pid = next(i for i, l in g.nodes.items() if l == place_label)
        return sum(1 for (s, t, _l) in g.edges.values()
                   if s == pid and g.nodes[t] == "t")

    assert tokens_on(result, "P") == 0
    assert tokens_on(result, "W") == 2
    assert tokens_on(result, "S1") == 2
    assert tokens_on(result, "S2") == 1


def test_identity_rule_is_identity():
    rule = identity_rule("skip", "sys")
    g = graph_of({"a": "a", "b": "b"}, [("a", "b", "x")])
    ms = list(matches(rule, g))
    assert len(ms) == 1
    assert apply_rule(rule, g, ms[0]) == g


def test_deletion_takes_dangling_edges():
    rule = Rule("drop", "sys", single_node("a"), Graph({}, {}), {})
    g = graph_of({"n0": "a", "b": "b"}, [("n0", "b", "x")])
    result = apply_rule(rule, g, next(iter(matches(rule, g))))
    assert len(result.nodes) == 1 and len(result.edges) == 0
    assert list(result.nodes.values()) == ["b"]


def test_rule_rejects_non_injective_map():
    two = graph_of({"a": "v", "b": "v"}, [])
    one = single_node("v")
    with pytest.raises(ValueError, match="injective"):
        Rule("merge", "sys", two, one, {"a": "n0", "b": "n0"})


def test_rule_rejects_label_change():
    with pytest.raises(ValueError, match="label"):
        Rule("relabel", "sys", single_node("a"), single_node("b"), {"n0": "n0"})


def test_successors_empty_without_match():
    rule = token_move_rule("P", "W", "transport")
    assert successors(graph_of({"l": "L"}, []), [rule], FREE) == []


# -- overlap enumeration -----------------------------------------------------


def test_overlap_counts_single_nodes():
    a = single_node("a")
    assert len(overlaps(a, single_node("a"))) == 2  # merged and disjoint
    assert len(overlaps(a, single_node("b"))) == 1  # disjoint only


def brute_overlap_count(a, b):
    """Independent count: every partial injective label-preserving node
    matching, times every consistent injective edge matching."""
    a_nodes, b_nodes = sorted(a.nodes), sorted(b.nodes)
    total = 0
    for k in range(min(len(a_nodes), len(b_nodes)) + 1):
        for chosen in itertools.combinations(a_nodes, k):
            for image in itertools.permutations(b_nodes, k):
                vmap = dict(zip(chosen, image))
                if any(a.nodes[x] != b.nodes[y] for x, y in vmap.items()):
                    continue
                pairs = []
                for ae, (s, t, l) in sorted(a.edges.items()):
                    for be, (s2, t2, l2) in sorted(b.edges.items()):
                        if l == l2 and vmap.get(s) == s2 and vmap.get(t) == t2:
                            pairs.append((ae, be))
                count = 0
                a_es = sorted({p[0] for p in pairs})
                b_es = sorted({p[1] for p in pairs})
                pairset = set(pairs)
                for kk in range(len(a_es) + 1):
                    for sub in itertools.combinations(a_es, kk):
                        for img in itertools.permutations(b_es, kk):
                            if all((x, y) in pairset for x, y in zip(sub, img)):
                                count += 1
                total += count
    return total


def test_overlap_count_on_touching_edges():
    a = graph_of({"x": "n", "y": "n"}, [("x", "y", "x")])
    b = graph_of({"y": "n", "z": "n"}, [("y", "z", "x")])
    got = overlaps(a, b)
    assert len(got) == brute_overlap_count(a, b)
    assert any(len(ov.u.nodes) == 4 for ov in got)  # the disjoint union


def test_overlap_count_random_against_brute_force():
    rng = rng_for("overlap-brute")
    for _ in range(25):
        a = random_graph(rng, ["n", "m"], ["x"], 3, 2)
        b = random_graph(rng, ["n", "m"], ["x"], 3, 2)
        assert len(overlaps(a, b)) == brute_overlap_count(a, b)


def test_overlap_guard_trips():
    from resilire.errors import GuardExceeded
    a = graph_of({"x": "n", "y": "n", "z": "n"}, [])
    with pytest.raises(GuardExceeded):
        overlaps(a, a, Limits(overlap_nodes=3))


# -- backward step ------------------------------------------------------------


def drop_edge_rule():
    left = graph_of({"l": "L", "p": "pt"}, [("l", "p", "x")])
    right = graph_of({"l": "L", "p": "pt"}, [])
    return Rule("sever", "env", left, right, {"l": "l", "p": "p"})


def one_step_covers(rule, g, target, klass):
    return any(exists_embedding(target, h) for h in successors(g, [rule], klass))


def test_predecessors_of_edge_deletion_forward_verified():
    klass = GraphClass(max_path=4)
    order = SubgraphOrder()
    rule = drop_edge_rule()
    target = graph_of({"l": "L", "p": "pt"}, [("l", "p", "x")])
    preds = rule_predecessor_basis(rule, target, klass, order=order)
    assert preds, "an extra deletable edge must always be addable"
    for g in preds:
        assert one_step_covers(rule, g, target, klass)
    # completeness over every class graph with <= 3 nodes
    universe = enumerate_class_graphs(["L", "pt"], ["x"], 3, klass, max_edges=3)
    basis = minimize(preds, order)
    for g in universe:
        if one_step_covers(rule, g, target, klass):
            assert covers(basis, g)


def test_predecessors_of_node_creation_include_empty():
    klass = GraphClass(max_path=4)
    order = SubgraphOrder()
    rule = Rule("spawn", "sys", Graph({}, {}), single_node("n"), {})
    preds = rule_predecessor_basis(rule, single_node("n"), klass, order=order)
    assert preds == [Graph({}, {})]


def test_predecessor_of_identity_is_target():
    klass = GraphClass(max_path=4)
    rule = identity_rule("skip", "sys")
    target = graph_of({"l": "L", "p": "pt"}, [("l", "p", "x")])
    preds = rule_predecessor_basis(rule, target, klass)
    assert preds == [target.canonical()]


def random_rule(rng, node_labels=("a", "b"), edge_labels=("x",)):
    left = random_graph(rng, list(node_labels), list(edge_labels), 3, 3)
    keep_nodes = [n for n in sorted(left.nodes) if rng.random() < 0.7]
    keep_edges = [e for e, (s, t, _l) in sorted(left.edges.items())
                  if s in keep_nodes and t in keep_nodes and rng.random() < 0.7]
    nodes = {n: left.nodes[n] for n in keep_nodes}
    edges = {e: left.edges[e] for e in keep_edges}
    for i in range(rng.randint(0, 2)):
        nodes["c%d" % i] = rng.choice(node_labels)
    ids = sorted(nodes)
    for j in range(rng.randint(0, 2)):
        if not ids:
            break
        s, t = rng.choice(ids), rng.choice(ids)
        if s != t:
            edges["f%d" % j] = (s, t, rng.choice(edge_labels))
    right = Graph(nodes, edges)
    return Rule("r", "sys", left, right,
                {n: n for n in keep_nodes}, {e: e for e in keep_edges})


def test_backward_step_sound_and_complete_smoke():
    rng = rng_for("pre-smoke")
    klass = GraphClass(max_path=3)
    order = SubgraphOrder()
    universe = enumerate_class_graphs(["a", "b"], ["x"], 4, klass, max_edges=4)
    for _ in range(12):
        rule = random_rule(rng)
        target = random_graph(rng, ["a", "b"], ["x"], 3, 3, klass)
        preds = rule_predecessor_basis(rule, target, klass, order=order)
        for g in preds:
            assert one_step_covers(rule, g, target, klass)
        basis = minimize(preds, order)
        for g in universe:
            if one_step_covers(rule, g, target, klass):
                assert covers(basis, g)


def test_post_basis_keeps_results_below_a_count_minimum():
    """Eating the `a` of a->x leaves one `a`, below the class minimum of
    two; only hosts with a third `a` step into the class, and their
    successors must stay covered."""
    klass = GraphClass(node_count=(("a", (2, None)),))
    eat = Rule("eat", "sys", graph_of({"a": "a", "x": "x"}, [("a", "x", "e")]),
               single_node("x"), {"x": "n0"})
    backend = GraphBackend([eat], klass)
    g = graph_of({"a1": "a", "x": "x", "a2": "a"}, [("a1", "x", "e")])
    host = graph_of({"a1": "a", "x": "x", "a2": "a", "a3": "a"}, [("a1", "x", "e")])
    succ = klass.normalize(graph_of({"x": "x", "a2": "a", "a3": "a"}, []))
    assert backend.post_step(g) == []
    assert backend.post_step(host) == [succ]
    basis = backend.post_basis(g)
    assert any(backend.order.leq(b, succ) for b in basis)


def test_post_basis_covers_class_successors_on_universe():
    """Every class successor of every class graph above g lies above an
    element of post_basis(g), on a 4-node universe of a class with count
    bounds on both sides."""
    rng = rng_for("post-basis-universe")
    klass = GraphClass(max_path=3, node_count=(("a", (2, 3)), ("b", (1, 3))))
    order = SubgraphOrder()
    universe = enumerate_class_graphs(["a", "b"], ["x"], 4, klass, max_edges=3)
    checked = 0
    for _ in range(40):
        rule = random_rule(rng)
        backend = GraphBackend([rule], klass)
        g = random_graph(rng, ["a", "b"], ["x"], 3, 2, klass)
        basis = backend.post_basis(g)
        for host in universe:
            if not order.leq(g, host):
                continue
            for h in backend.post_step(host):
                assert any(order.leq(b, h) for b in basis), (rule, g, host, h)
                checked += 1
    assert checked > 1000


def test_strong_compatibility_sampled():
    rng = rng_for("strong-compat")
    klass = GraphClass(max_path=4)
    order = SubgraphOrder()
    rules = [token_move_rule("P", "W", "transport"), drop_edge_rule()]
    for _ in range(40):
        rule = rng.choice(rules)
        small = random_graph(rng, ["P", "W", "L", "pt", "t"], ["x"], 4, 4, klass)
        # grow a strictly bigger host around the small graph
        nodes = dict(small.nodes)
        nodes["extra"] = rng.choice(["P", "W", "t"])
        edges = dict(small.edges)
        if small.nodes:
            edges["extra_e"] = ("extra", rng.choice(sorted(small.nodes)), "x")
        big = Graph(nodes, edges)
        if not klass.contains(big):
            continue
        for succ_small in successors(small, [rule], klass):
            assert any(exists_embedding(succ_small, succ_big)
                       for succ_big in successors(big, [rule], klass)), \
                "bigger graphs must simulate smaller ones in one step"


# -- the supply chain as a graph system reproduces the net -------------------


def supply_gts():
    produce = Rule(
        "produce", "sys",
        single_node("P"),
        graph_of({"n0": "P", "tok": "t"}, [("n0", "tok", "x")]),
        {"n0": "n0"})
    consume = {}
    for name, place in (("accident", "W"), ("buy1", "S1"), ("buy2", "S2")):
        left = graph_of({"p": place, "tok": "t"}, [("p", "tok", "x")])
        consume[name] = Rule(name, "env", left, Graph({"p": place}, {}), {"p": "p"})
    rules = [
        produce,
        token_move_rule("P", "W", "transport"),
        token_move_rule("W", "S1", "ship1"),
        token_move_rule("W", "S2", "ship2"),
        consume["accident"], consume["buy1"], consume["buy2"],
    ]
    klass = GraphClass(
        max_path=4,
        node_count=(("P", (1, 1)), ("S1", (1, 1)), ("S2", (1, 1)), ("W", (1, 1))))
    return rules, klass


def marking_graph(tokens):
    nodes = {"P": "P", "W": "W", "S1": "S1", "S2": "S2"}
    edges = {"w1": ("P", "W", "x"), "w2": ("W", "S1", "x"), "w3": ("W", "S2", "x")}
    for i, (place, count) in enumerate(zip(("P", "W", "S1", "S2"), tokens)):
        for j in range(count):
            nid = "tok%d_%d" % (i, j)
            nodes[nid] = "t"
            edges["te%d_%d" % (i, j)] = (place, nid, "x")
    return Graph(nodes, edges)


def graph_marking(g):
    place_ids = {l: i for i, l in g.nodes.items() if l != "t"}
    counts = {l: 0 for l in place_ids}
    for (s, t, _l) in g.edges.values():
        if g.nodes[t] == "t":
            counts[g.nodes[s]] += 1
    return tuple(counts[p] for p in ("P", "W", "S1", "S2"))


def test_graph_encoding_matches_net_firing():
    rules, klass = supply_gts()
    net = make_net(
        ["P", "W", "S1", "S2"],
        [
            {"name": "produce", "owner": "sys", "pre": {}, "post": {"P": 1}},
            {"name": "transport", "owner": "sys", "pre": {"P": 1}, "post": {"W": 1}},
            {"name": "ship1", "owner": "sys", "pre": {"W": 1}, "post": {"S1": 1}},
            {"name": "ship2", "owner": "sys", "pre": {"W": 1}, "post": {"S2": 1}},
            {"name": "accident", "owner": "env", "pre": {"W": 1}, "post": {}},
            {"name": "buy1", "owner": "env", "pre": {"S1": 1}, "post": {}},
            {"name": "buy2", "owner": "env", "pre": {"S2": 1}, "post": {}},
        ])
    rng = rng_for("cross-backend")
    for _ in range(25):
        tokens = tuple(rng.randint(0, 2) for _ in range(4))
        g = marking_graph(tokens)
        got = sorted(graph_marking(h) for h in successors(g, rules, klass))
        want = sorted(
            fire(net, Marking(tokens), t).tokens
            for t in net.transitions if enabled(net, Marking(tokens), t))
        assert got == want
