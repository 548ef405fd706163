"""SPO application, overlap enumeration, and the backward step."""

import itertools
from collections import Counter
from typing import NamedTuple

import pytest

from resilire import engine, graphs, model, rewriting
from resilire.graphs import (Graph, GraphClass, embeddings, exists_embedding, graph_of,
                             single_node)
from resilire.limits import Limits
from resilire.order import basis_subset, covers, minimize
from resilire.petri import Marking, enabled, fire, make_net
from resilire.rewriting import (GraphBackend, Rule, SubgraphOrder, apply_rule,
                                identity_rule, matches, overlaps,
                                rule_predecessor_basis, successors)

from conftest import enumerate_class_graphs, fixture_path, random_graph, rng_for

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


def brute_overlaps(a, b):
    """Independent enumeration: U for every partial injective
    label-preserving node matching and every consistent injective edge
    matching, with the ids `overlaps` gives U's items."""
    a_nodes, b_nodes = sorted(a.nodes), sorted(b.nodes)
    out = []
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
                a_es = sorted({p[0] for p in pairs})
                b_es = sorted({p[1] for p in pairs})
                pairset = set(pairs)
                for kk in range(len(a_es) + 1):
                    for sub in itertools.combinations(a_es, kk):
                        for img in itertools.permutations(b_es, kk):
                            if all((x, y) in pairset for x, y in zip(sub, img)):
                                out.append(glued(a, b, vmap, dict(zip(sub, img))))
    return out


def glued(a, b, vmap, emap):
    """U of one node and edge matching, built without `overlaps`."""
    home = {y: "a:" + x for x, y in vmap.items()}
    nodes = {"a:" + v: lab for v, lab in a.nodes.items()}
    for v, lab in b.nodes.items():
        if v not in home:
            home[v] = "b:" + v
            nodes["b:" + v] = lab
    edges = {"a:" + e: ("a:" + s, "a:" + t, l) for e, (s, t, l) in a.edges.items()}
    for e, (s, t, l) in b.edges.items():
        if e not in emap.values():
            edges["b:" + e] = (home[s], home[t], l)
    return Graph(nodes, edges)


class Glued(NamedTuple):
    """One overlap of a with b: the glued graph U and the embedding of a."""

    u: Graph
    match: dict


def glue_each(a, b, pairings):
    match = {"nodes": {v: "a:" + v for v in a.nodes}, "edges": {e: "a:" + e for e in a.edges}}
    return [Glued(glued(a, b, *pairs), match) for pairs in pairings]


def glued_overlaps(a, b, *args):
    return glue_each(a, b, overlaps(a, b, *args))


def pinned_class(u):
    """U's isomorphism class with the items of `a` held fixed: the key
    of U with each `a:` item's id folded into its label."""
    nodes = {v: lab + "@" + v if v.startswith("a:") else lab for v, lab in u.nodes.items()}
    edges = {e: (s, t, l + "@" + e if e.startswith("a:") else l)
             for e, (s, t, l) in u.edges.items()}
    return Graph(nodes, edges).key()


def assert_overlaps_meet_every_class(a, b):
    """`overlaps` returns a pinned class for every overlap, and no more
    overlaps than brute force finds; returns both counts."""
    got, want = glued_overlaps(a, b), brute_overlaps(a, b)
    assert {pinned_class(ov.u) for ov in got} == {pinned_class(u) for u in want}, (a, b)
    assert len(got) <= len(want)
    return len(got), len(want)


def test_overlap_counts_single_nodes():
    a = single_node("a")
    assert assert_overlaps_meet_every_class(a, single_node("a")) == (2, 2)  # merged, disjoint
    assert assert_overlaps_meet_every_class(a, single_node("b")) == (1, 1)  # disjoint only


def test_overlap_count_on_touching_edges():
    a = graph_of({"x": "n", "y": "n"}, [("x", "y", "x")])
    b = graph_of({"y": "n", "z": "n"}, [("y", "z", "x")])
    assert_overlaps_meet_every_class(a, b)
    assert any(len(ov.u.nodes) == 4 for ov in glued_overlaps(a, b))  # the disjoint union


def test_overlap_count_random_against_brute_force():
    rng = rng_for("overlap-brute")
    fewer = 0
    for _ in range(25):
        a = random_graph(rng, ["n", "m"], ["x"], 3, 2)
        b = random_graph(rng, ["n", "m"], ["x"], 3, 2)
        got, want = assert_overlaps_meet_every_class(a, b)
        fewer += got < want
    assert fewer


def test_overlaps_skip_twin_nodes_and_parallel_edges():
    """Pairing with either of two twin nodes, or with either of two
    parallel edges, gives the same pinned class once."""
    a = single_node("n")
    twins = graph_of({"u": "n", "v": "n"}, [])
    assert assert_overlaps_meet_every_class(a, twins) == (2, 3)
    edge = graph_of({"s": "n", "t": "m"}, [("s", "t", "x")])  # no twins
    parallel = graph_of({"s": "n", "t": "m"}, [("s", "t", "x"), ("s", "t", "x")])
    assert assert_overlaps_meet_every_class(edge, parallel) == (5, 6)


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
    basis = minimize(rule_predecessor_basis(rule, target, klass), order)
    assert basis, "an extra deletable edge must always be addable"
    for g in basis:
        assert one_step_covers(rule, g, target, klass)
    # completeness over every class graph with <= 3 nodes
    universe = enumerate_class_graphs(["L", "pt"], ["x"], 3, klass, max_edges=3)
    for g in universe:
        if one_step_covers(rule, g, target, klass):
            assert covers(basis, g)


def test_predecessors_of_node_creation_include_empty():
    klass = GraphClass(max_path=4)
    order = SubgraphOrder()
    rule = Rule("spawn", "sys", Graph({}, {}), single_node("n"), {})
    preds = rule_predecessor_basis(rule, single_node("n"), klass)
    assert minimize(preds, order).elements == (Graph({}, {}),)


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


def twin_rich_graph(rng, klass):
    """A random class graph to which a twin of one node and a parallel
    copy of one edge were added, or None if the class refuses them."""
    for _ in range(50):
        g = random_graph(rng, ["a", "b"], ["x"], 3, 3)
        nodes, edges = dict(g.nodes), dict(g.edges)
        if nodes:
            v = rng.choice(sorted(nodes))
            nodes["twin"] = nodes[v]
            for e, (s, t, l) in g.edges.items():
                if v in (s, t):
                    edges["twin" + e] = ("twin" if s == v else s, "twin" if t == v else t, l)
        if g.edges:
            edges["parallel"] = g.edges[rng.choice(sorted(g.edges))]
        h = Graph(nodes, edges)
        if klass.contains(h):
            return h
    return None


@pytest.mark.parametrize("klass", [
    GraphClass(max_path=4),
    GraphClass(max_path=4, quotient_labels=frozenset({"b"})),
    GraphClass(max_path=4, node_count=(("a", (1, 3)),)),
    GraphClass(max_path=4, control_labels=frozenset({"b"})),
], ids=["plain", "quotient", "counts", "control"])
def test_successors_equal_the_results_at_every_embedding(klass):
    """Matching one morphism per orbit of the host's twin and
    parallel-edge swaps loses no successor, and skips some matches."""
    rng = rng_for("orbit-successors")
    nonempty = pruned = 0
    for _ in range(300):
        rule = random_rule(rng)
        g = twin_rich_graph(rng, klass)
        if g is None:
            continue
        every = list(embeddings(rule.left, g))
        want = {h.key() for h in (klass.admit(apply_rule(rule, g, m)) for m in every)
                if h is not None}
        assert {h.key() for h in successors(g, [rule], klass)} == want, (rule.left, g)
        count = sum(1 for _ in matches(rule, g))
        assert count <= len(every)
        nonempty += bool(want)
        pruned += count < len(every)
    assert nonempty > 80 and pruned > 30


def test_keeps_paths_on_the_path_game_rules():
    """Only `new_point` creates an edge at a node the rule creates; the
    other rules recreate edges between nodes their left sides join.
    Read backwards, `sever` joins nodes its left side leaves apart."""
    rules = model.build(model.load(fixture_path("pathgame.json"))).backend.rules
    kept = {rule.name.split("[")[0]: rule.keeps_paths for rule in rules}
    assert kept == {"new_point": False, "widen1": True, "widen2": True, "flip1": True,
                    "flip2": True, "sever1": True, "sever2": True}
    assert not any(rule.inverse().keeps_paths for rule in rules
                   if rule.name.startswith("sever"))


def path_rule(rng):
    """A random rule whose created edges are loops, copies of left edges
    in either direction, or edges between any other preserved or
    created nodes."""
    left = random_graph(rng, ["a", "b"], ["x"], 3, 3)
    keep = [n for n in sorted(left.nodes) if rng.random() < 0.8]
    kept = [e for e, (s, t, _l) in sorted(left.edges.items())
            if s in keep and t in keep and rng.random() < 0.5]
    nodes = {n: left.nodes[n] for n in keep}
    edges = {e: left.edges[e] for e in kept}
    if rng.random() < 0.3:
        nodes["c"] = rng.choice(["a", "b"])
    joined = [(s, t) for s, t, _l in left.edges.values() if s in keep and t in keep]
    for j in range(rng.randint(0, 2) if nodes else 0):
        if joined and rng.random() < 0.4:
            s, t = rng.choice(joined)[::rng.choice([1, -1])]
        else:
            s, t = rng.choice(sorted(nodes)), rng.choice(sorted(nodes))
        edges["f%d" % j] = (s, t, "x")
    return Rule("r", "sys", left, Graph(nodes, edges),
                {n: n for n in keep}, {e: e for e in kept})


def created_edge_kinds(rule):
    back = {r: l for l, r in rule.node_map.items()}
    joined = {frozenset((s, t)) for s, t, _l in rule.left.edges.values()}
    kinds = set()
    for s, t, _l in map(rule.right.edges.get, rule.created_edges):
        if s == t:
            kinds.add("loop")
        elif s not in back or t not in back:
            kinds.add("at a created node")
        elif frozenset((back[s], back[t])) in joined:
            kinds.add("joined")
        else:
            kinds.add("unjoined")
    return kinds


def grown_member(rng, klass):
    """A random class member, its edges (loops among them) added one at
    a time while the class allows."""
    g = random_graph(rng, ["a", "b"], ["x"], 6, 0, klass)
    for j in range(8 if g.nodes else 0):
        s, t = rng.choice(sorted(g.nodes)), rng.choice(sorted(g.nodes))
        grown = Graph(g.nodes, {**g.edges, "e%d" % j: (s, t, "x")})
        g = grown if klass.contains(grown) else g
    return g


@pytest.mark.parametrize("klass", [
    GraphClass(max_path=2),
    GraphClass(max_path=3, quotient_labels=frozenset({"b"}), node_count=(("a", (None, 3)),)),
], ids=["plain", "quotient"])
def test_successors_skip_the_path_test_only_where_it_cannot_fail(klass):
    """On class members, `successors` with the path test skipped for
    rules that keep paths equals the full class test of every result."""
    rng = rng_for("keeps-paths")
    kinds, refused, kept = Counter(), 0, 0
    for _ in range(400):
        rule = path_rule(rng)
        g = grown_member(rng, klass)
        assert rule.keeps_paths == (created_edge_kinds(rule) <= {"loop", "joined"})
        kinds.update(created_edge_kinds(rule))
        results = [apply_rule(rule, g, m) for m in embeddings(rule.left, g)]
        want = {h.key() for h in map(klass.admit, results) if h is not None}
        assert {h.key() for h in successors(g, [rule], klass)} == want, (rule.right, g)
        refused += sum(klass.admit(h, paths=False) is not None and klass.admit(h) is None
                       for h in results)
        kept += rule.keeps_paths and bool(want)
    assert min(kinds[k] for k in ("loop", "joined", "unjoined", "at a created node")) >= 20, kinds
    assert refused > 20 and kept > 20, (refused, kept)


def test_successors_prepare_the_host_once_for_all_rules(monkeypatch):
    built = model.build(model.load(fixture_path("pathgame.json")))
    g = max(built.backend.post_step(built.start), key=len)
    built_for = Counter()
    for module in (graphs, rewriting):
        for name in ("host_plan", "twin_signatures"):
            def counting(host, real=getattr(module, name), name=name):
                built_for[name] += 1
                return real(host)
            monkeypatch.setattr(module, name, counting)
    assert successors(g, built.backend.rules, built.backend.klass)
    assert built_for == {"host_plan": 1, "twin_signatures": 1}


def test_backward_step_sound_and_complete_smoke():
    rng = rng_for("pre-smoke")
    klass = GraphClass(max_path=3)
    order = SubgraphOrder()
    universe = enumerate_class_graphs(["a", "b"], ["x"], 4, klass, max_edges=4)
    for _ in range(12):
        rule = random_rule(rng)
        target = random_graph(rng, ["a", "b"], ["x"], 3, 3, klass)
        basis = minimize(rule_predecessor_basis(rule, target, klass), order)
        for g in basis:
            assert one_step_covers(rule, g, target, klass)
        for g in universe:
            if one_step_covers(rule, g, target, klass):
                assert covers(basis, g)


def test_backward_step_lifts_targets_to_the_count_minima():
    """A target below a class minimum stands for the members above it:
    a class member steps above the target inside the class exactly when
    it lies above a basis element, on a 4-node universe."""
    rng = rng_for("pre-minima-universe")
    klass = GraphClass(node_count=(("a", (2, None)), ("b", (1, None))))
    order = SubgraphOrder()
    universe = enumerate_class_graphs(["a", "b"], ["x"], 4, klass, max_edges=2)
    lifted = 0
    for _ in range(16):
        rule = random_rule(rng)
        target = random_graph(rng, ["a", "b"], ["x"], 3, 2)
        basis = minimize(rule_predecessor_basis(rule, target, klass), order)
        lifted += not klass.contains(target)
        for g in universe:
            assert one_step_covers(rule, g, target, klass) == covers(basis, g), (
                rule, target, g)
    assert lifted > 8


def reference_predecessor_keys(rule, target, klass):
    """The backward step built by hand, as it was before it became an
    inverse rule application: (a) the dangling check, (b) deletion of
    the created items, (c) gluing of the deleted left part.  Sorted
    canonical keys of the graphs it yields that embed in class members."""
    results = {}
    for ov in glued_overlaps(rule.right, target):
        a_nodes, a_edges = ov.match["nodes"], ov.match["edges"]
        created_u_nodes = {a_nodes[rid] for rid in rule.created_nodes}
        created_u_edges = {a_edges[rid] for rid in rule.created_edges}
        # (a) reject impossible targets: a pure-target edge on a created node
        rejected = False
        for ueid, (s, t, _l) in ov.u.edges.items():
            if ueid.startswith("b:"):
                if s in created_u_nodes or t in created_u_nodes:
                    rejected = True
                    break
        if rejected:
            continue
        # (b) remove created items
        nodes = {v: l for v, l in ov.u.nodes.items() if v not in created_u_nodes}
        edges = {
            e: d
            for e, d in ov.u.edges.items()
            if e not in created_u_edges and d[0] not in created_u_nodes
            and d[1] not in created_u_nodes
        }
        # (c) glue a fresh copy of the deleted left part
        placed = {}
        for lid, rid in rule.node_map.items():
            placed[lid] = a_nodes[rid]
        for i, lid in enumerate(rule.deleted_nodes):
            nid = "del:n%d" % i
            nodes[nid] = rule.left.nodes[lid]
            placed[lid] = nid
        for i, lid in enumerate(rule.deleted_edges):
            ls, lt, ll = rule.left.edges[lid]
            edges["del:e%d" % i] = (placed[ls], placed[lt], ll)
        cand = klass.admit(Graph(nodes, edges), subgraph=True)
        if cand is not None:
            results.setdefault(cand.key(), cand)
    return sorted(results)


@pytest.mark.parametrize("klass", [
    GraphClass(max_path=3),
    GraphClass(max_path=3, quotient_labels=frozenset({"b"})),
    GraphClass(max_path=3, node_count=(("a", (1, 2)),)),
    GraphClass(max_path=3, control_labels=frozenset({"b"})),
    GraphClass(max_path=3, node_count=(("b", (None, 1)),), quotient_labels=frozenset({"b"})),
], ids=["plain", "quotient", "counts", "control", "quotient-counts"])
def test_backward_step_equals_the_reference_construction(klass):
    rng = rng_for("inverse-reference")
    nonempty = 0
    for _ in range(200):
        rule = random_rule(rng)
        target = random_graph(rng, ["a", "b"], ["x"], 3, 3, klass)
        want = reference_predecessor_keys(rule, target, klass)
        got = {g.key() for g in rule_predecessor_basis(rule, target, klass)}
        assert got == set(want), (rule.left, rule.right, target)
        nonempty += bool(want)
    assert nonempty > 100


def overlap_ids(ovs):
    return [(sorted(ov.u.nodes.items()), sorted(ov.u.edges.items())) for ov in ovs]


def record_overlaps(monkeypatch):
    """Make the rewriting module's `overlaps` keep each result list,
    glued."""
    calls = []

    def recording(a, b, *args):
        pairings = overlaps(a, b, *args)
        calls.append(glue_each(a, b, pairings))
        return pairings

    monkeypatch.setattr(rewriting, "overlaps", recording)
    return calls


def meets_dangling(rule, ov):
    created = {ov.match["nodes"][rid] for rid in rule.created_nodes}
    return not any(e.startswith("b:") and (s in created or t in created)
                   for e, (s, t, _l) in ov.u.edges.items())


# Classes with neither a path bound nor a count on a quotient label:
# every overlap the backward step may skip is one `admit(g, subgraph=True)`
# rejects.
@pytest.mark.parametrize("klass", [
    GraphClass(node_count=(("a", (1, 2)),)),
    GraphClass(node_count=(("a", (None, 1)), ("b", (2, None)))),
    GraphClass(control_labels=frozenset({"b"}), quotient_labels=frozenset({"a"})),
], ids=["counts", "max-and-min", "control"])
def test_backward_step_enumerates_exactly_the_viable_overlaps(klass, monkeypatch):
    calls = record_overlaps(monkeypatch)
    rng = rng_for("viable-overlaps")
    total = kept = 0
    for _ in range(200):
        rule = random_rule(rng)
        target = random_graph(rng, ["a", "b"], ["x"], 3, 3, klass)
        calls.clear()
        rule_predecessor_basis(rule, target, klass)
        every = glued_overlaps(rule.right, target)
        viable = [ov for ov in every if meets_dangling(rule, ov)
                  and klass.admit(apply_rule(rule.inverse(), ov.u, ov.match),
                                  subgraph=True) is not None]
        assert overlap_ids(calls[0]) == overlap_ids(viable), (rule.right, target)
        total += len(every)
        kept += len(viable)
    assert 0 < kept < total


def test_post_basis_enumerates_exactly_the_overlaps_inside_the_class(monkeypatch):
    klass = GraphClass(node_count=(("a", (2, 3)), ("b", (None, 1))),
                       marker_labels=frozenset({"m"}))
    calls = record_overlaps(monkeypatch)
    rng = rng_for("post-overlaps")
    total = kept = 0
    for _ in range(200):
        rule = random_rule(rng, node_labels=("a", "b", "m"))
        g = random_graph(rng, ["a", "b", "m"], ["x"], 3, 3)
        calls.clear()
        GraphBackend([rule], klass).post_basis([g])
        every = glued_overlaps(rule.left, g)
        inside = [ov for ov in every if klass.contains(ov.u, subgraph=True)]
        assert overlap_ids(calls[0]) == overlap_ids(inside), (rule.left, g)
        total += len(every)
        kept += len(inside)
    assert 0 < kept < total


def test_direct_predecessor_is_the_inverse_rule_at_the_glued_overlap():
    """Every graph built from an overlap pairing comes from the pairs
    alone, and it is the rule applied at the glued overlap, up to
    isomorphism: the inverse rule at an overlap of the right side with
    the target (backward), on every overlap, those the dangling
    condition prunes among them, the rule at an overlap of the left side
    with the host (forward), and the rule that keeps the left side,
    which gives the glued overlap itself (the meet and the forward
    step's class test)."""
    rng = rng_for("direct-predecessor")
    seen = Counter()
    for _ in range(150):
        rule = random_rule(rng)
        target = random_graph(rng, ["a", "b"], ["x"], 3, 3)
        keep = identity_rule(rule.name, rule.owner, rule.left)
        for step, side in ((rule.inverse(), rule.right), (rule, rule.left), (keep, rule.left)):
            pairings = overlaps(side, target)
            for pairs, ov in zip(pairings, glue_each(side, target, pairings)):
                want = ov.u if step is keep else apply_rule(step, ov.u, ov.match)
                assert rewriting._apply(step, target, *pairs).key() == want.key(), (step, target)
                seen["forward" if step is rule else "keep" if step is keep
                     else "viable" if meets_dangling(rule, ov) else "dangling"] += 1
        seen.update(kind for kind, items in (
            ("deletes nodes", rule.deleted_nodes), ("deletes edges", rule.deleted_edges),
            ("creates nodes", rule.created_nodes), ("creates edges", rule.created_edges))
            if items)
    assert min(seen.values()) >= 20 and len(seen) == 8, seen


def reference_apply(rule, g, match):
    """SPO application at a total match, written out: g's survivors in
    g's order, then the created nodes and edges in id order, named
    "new:n<i>" and "new:e<i>"."""
    vmap, emap = match["nodes"], match["edges"]
    doomed = {vmap[v] for v in rule.deleted_nodes}
    doomed_edges = {emap[e] for e in rule.deleted_edges}
    nodes = {v: l for v, l in g.nodes.items() if v not in doomed}
    edges = {e: (s, t, l) for e, (s, t, l) in g.edges.items()
             if e not in doomed_edges and s not in doomed and t not in doomed}
    placed = {rid: vmap[lid] for lid, rid in rule.node_map.items()}
    for i, rid in enumerate(rule.created_nodes):
        placed[rid] = "new:n%d" % i
        nodes[placed[rid]] = rule.right.nodes[rid]
    for i, rid in enumerate(rule.created_edges):
        s, t, l = rule.right.edges[rid]
        edges["new:e%d" % i] = (placed[s], placed[t], l)
    return Graph(nodes, edges)


def test_apply_rule_names_items_as_written_out_at_total_matches():
    rng = rng_for("total-matches")
    applied = 0
    for _ in range(150):
        rule = random_rule(rng)
        g = random_graph(rng, ["a", "b"], ["x"], 4, 5)
        for m in embeddings(rule.left, g):
            got, want = apply_rule(rule, g, m), reference_apply(rule, g, m)
            assert list(got.nodes.items()) == list(want.nodes.items()), (rule, g)
            assert list(got.edges.items()) == list(want.edges.items()), (rule, g)
            applied += 1
    assert applied >= 100


def test_created_items_get_ids_the_host_lacks():
    grow = Rule("grow", "sys", Graph({"x": "a"}, {}),
                Graph({"x": "a", "y": "b"}, {"e": ("x", "y", "r")}), {"x": "x"})
    host = Graph({"h": "a", "new:n0": "c"},
                 {"k": ("h", "new:n0", "s"), "new:e0": ("new:n0", "h", "s")})
    result = apply_rule(grow, host, next(matches(grow, host)))
    assert result.nodes == {"h": "a", "new:n0": "c", "new:n1": "b"}
    assert result.edges == {"k": ("h", "new:n0", "s"), "new:e0": ("new:n0", "h", "s"),
                            "new:e1": ("h", "new:n1", "r")}


def step_rounds(step, seed, rounds):
    """The frontiers that the first `rounds` saturation rounds step."""
    frontiers = []

    def recording(frontier):
        frontiers.append(list(frontier))
        return step(frontier)

    for k, _ledger, _stable in engine._rounds(engine._Ledger(seed), recording, rounds):
        if k == rounds:
            break
    return frontiers


def assert_batched_step(step, frontier, monkeypatch, walks_all=False):
    """`step(frontier)` gives each key once and the union of the keys of
    the per-state calls, and `GraphClass.admit` walks the paths of each
    key at most once (with `walks_all`, of each key given too); returns
    how many repeats the per-state calls gave."""
    walked, admitting = [], []

    def admit(self, *args, real=GraphClass.admit, **kwargs):
        admitting.append(True)
        try:
            return real(self, *args, **kwargs)
        finally:
            admitting.pop()

    def walk(g, bound, real=graphs.path_length_within):
        if admitting:  # a candidate, not a forward overlap graph
            walked.append(g.key())
        return real(g, bound)

    monkeypatch.setattr(GraphClass, "admit", admit)
    monkeypatch.setattr(graphs, "path_length_within", walk)
    keys = [h.key() for h in step(frontier)]
    monkeypatch.undo()
    assert len(keys) == len(set(keys))
    assert len(walked) == len(set(walked))
    assert not walks_all or set(keys) <= set(walked)
    singles = [h.key() for g in frontier for h in step([g])]
    assert set(keys) == set(singles)
    return len(singles) - len(keys)


def test_batched_steps_on_the_path_game_rounds(monkeypatch):
    built = model.build(model.load(fixture_path("pathgame.json")))
    backend, order = built.backend, built.backend.order
    backward = step_rounds(backend.pre_basis, built.safe, 4)
    forward = step_rounds(backend.post_basis, minimize([built.start], order), 4)
    repeats = [assert_batched_step(backend.pre_basis, f, monkeypatch, walks_all=True)
               for f in backward]
    repeats += [assert_batched_step(backend.post_basis, f, monkeypatch) for f in forward]
    assert sum(map(len, backward)) > 50 and sum(repeats) > 300, repeats


@pytest.mark.parametrize("klass", [
    GraphClass(max_path=3),
    GraphClass(max_path=3, quotient_labels=frozenset({"b"}),
               node_count=(("a", (1, 3)),)),
], ids=["plain", "quotient-counts"])
def test_batched_steps_on_random_frontiers(klass, monkeypatch):
    rng = rng_for("batched-steps")
    repeated = 0
    for _ in range(40):
        backend = GraphBackend([random_rule(rng), random_rule(rng)], klass)
        frontier = [random_graph(rng, ["a", "b"], ["x"], 3, 3, klass) for _ in range(3)]
        repeated += assert_batched_step(backend.pre_basis, frontier, monkeypatch,
                                        walks_all=True) > 0
        repeated += assert_batched_step(backend.post_basis, frontier, monkeypatch) > 0
    assert repeated > 20, repeated


# ---------------------------------------------------------------------------
# labelled repeats are dropped before they are quotiented and keyed
# ---------------------------------------------------------------------------


def keying_admit(self, g, subgraph=False, paths=True, seen=None):
    """`GraphClass.admit` without the labelled-form test: with `seen`,
    every candidate is quotiented and, within the count bounds, keyed."""
    g = graphs.quotient_isolated(g, self.quotient_labels)
    if seen is not None:
        if not self._counts_hold(g, subgraph) or g.key() in seen:
            return None
        seen.add(g.key())
    return g.canonical() if self.contains(g, subgraph, paths) else None


def assert_keys_as_keying_every_candidate(step, inputs, monkeypatch):
    """`step(x)` gives for each x the keys that it gives with
    `keying_admit`, in the same order; returns how many it gave, and
    how many graphs each way canonicalized."""
    keyed = Counter()

    def keys(mode):
        def recording(g, real=graphs._canonical_key):
            keyed[mode] += 1
            return real(g)

        monkeypatch.setattr(graphs, "_canonical_key", recording)
        out = [[h.key() for h in step(x)] for x in inputs]
        monkeypatch.undo()
        return out

    got = keys("labelled")
    monkeypatch.setattr(GraphClass, "admit", keying_admit)
    want = keys("keying")
    assert got == want
    return sum(map(len, got)), keyed["labelled"], keyed["keying"]


def test_pre_basis_on_the_path_game_check_rounds_keys_as_keying_every_candidate(
        monkeypatch):
    """The check's 13 rounds: 4,299 graphs given, 8,023 canonicalized
    where keying every candidate canonicalizes 18,716."""
    built = model.build(model.load(fixture_path("pathgame.json")))
    frontiers = step_rounds(built.backend.pre_basis, built.safe, 13)
    assert len(frontiers) == 13
    assert assert_keys_as_keying_every_candidate(
        built.backend.pre_basis, frontiers, monkeypatch) == (4299, 8023, 18716)


def test_post_basis_on_the_path_game_over_rounds_keys_as_keying_every_candidate(
        monkeypatch):
    built = model.build(model.load(fixture_path("pathgame.json")))
    backend = built.backend
    frontiers = step_rounds(backend.post_basis, minimize([built.start], backend.order),
                            built.doc.limits.max_iters)
    given = assert_keys_as_keying_every_candidate(backend.post_basis, frontiers, monkeypatch)
    assert (len(frontiers),) + given == (2, 8, 10, 23)


def test_successors_on_the_path_game_forward_layers_key_as_keying_every_candidate(
        monkeypatch):
    built = model.build(model.load(fixture_path("pathgame.json")))
    layers = engine.forward_states(built.start, built.backend, 8)
    states = [g for layer in layers[:-1] for g in layer]
    given = assert_keys_as_keying_every_candidate(built.backend.post_step, states,
                                                  monkeypatch)
    assert (len(states),) + given == (42, 105, 109, 117)


# ---------------------------------------------------------------------------
# label-count gates in front of rule matches and overlaps
# ---------------------------------------------------------------------------


def ungated_matches(rule, g, twins=None, plan=None):
    """`matches` without its `counts_fit` gate."""
    if twins is None:
        twins = graphs.twin_signatures(g)
    return embeddings(rule.left, g, twins=twins, plan=plan)


def reach_fits(a, b, windows):
    """The test `overlaps` makes before its search without the count
    gate: a window pairs at most as many nodes as `a` has in it."""
    have = Counter(a.nodes.values())
    return all(least <= sum(have[l] for l in labels) for labels, least in windows)


def assert_gates_keep_the_results(step, inputs, monkeypatch):
    """`step(x)` gives for each x the keys that it gives with the gates
    monkeypatched away, in the same order; returns how often each gate
    was asked and refused."""
    asked = Counter()

    def counting(name, real):
        def gate(*args):
            fit = real(*args)
            asked[name] += 1
            asked[name + " refused"] += not fit
            return fit
        return gate

    monkeypatch.setattr(rewriting, "_windows_fit", counting("overlaps", rewriting._windows_fit))
    monkeypatch.setattr(rewriting, "counts_fit", counting("matches", rewriting.counts_fit))
    got = [[h.key() for h in step(x)] for x in inputs]
    monkeypatch.undo()
    monkeypatch.setattr(rewriting, "_windows_fit", reach_fits)
    monkeypatch.setattr(rewriting, "matches", ungated_matches)
    want = [[h.key() for h in step(x)] for x in inputs]
    monkeypatch.undo()
    assert got == want
    return dict(asked)


def test_gated_pre_basis_on_the_path_game_check_rounds(monkeypatch):
    built = model.build(model.load(fixture_path("pathgame.json")))
    frontiers = step_rounds(built.backend.pre_basis, built.safe, 13)
    assert assert_gates_keep_the_results(built.backend.pre_basis, frontiers, monkeypatch) == {
        "overlaps": 3913, "overlaps refused": 1445}


def test_gated_post_basis_on_the_path_game_over_rounds(monkeypatch):
    built = model.build(model.load(fixture_path("pathgame.json")))
    backend = built.backend
    frontiers = step_rounds(backend.post_basis, minimize([built.start], backend.order),
                            built.doc.limits.max_iters)
    assert assert_gates_keep_the_results(backend.post_basis, frontiers, monkeypatch) == {
        "overlaps": 21, "overlaps refused": 12}


def test_gated_successors_on_the_path_game_forward_layers(monkeypatch):
    """The layers to depth 17, as the `pathgame-forward` workload walks them."""
    built = model.build(model.load(fixture_path("pathgame.json")))
    layers = engine.forward_states(built.start, built.backend, 17)
    states = [g for layer in layers[:-1] for g in layer]
    assert assert_gates_keep_the_results(built.backend.post_step, states, monkeypatch) == {
        "matches": 6860, "matches refused": 4466}


def test_inverse_rule_swaps_deleted_and_created_items():
    rng = rng_for("inverse-rule")
    for _ in range(60):
        rule = random_rule(rng)
        inv = rule.inverse()
        assert rule.inverse() is inv
        assert inv.left is rule.right and inv.right is rule.left
        assert inv.inverse().node_map == rule.node_map
        assert inv.inverse().edge_map == rule.edge_map
        assert (inv.deleted_nodes, inv.created_nodes) == (rule.created_nodes,
                                                          rule.deleted_nodes)
        assert (inv.deleted_edges, inv.created_edges) == (rule.created_edges,
                                                          rule.deleted_edges)


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
    succ = klass.admit(graph_of({"x": "x", "a2": "a", "a3": "a"}, []))
    assert backend.post_step(g) == []
    assert backend.post_step(host) == [succ]
    basis = backend.post_basis([g])
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
        basis = backend.post_basis([g])
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
            fire(Marking(tokens), t).tokens
            for t in net.transitions if enabled(Marking(tokens), t))
        assert got == want
