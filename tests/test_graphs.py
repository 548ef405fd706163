"""Graph data type: canonical forms, embeddings, paths, normalization."""

import itertools
import time
from collections import Counter, defaultdict
from math import factorial
from typing import Dict

from resilire import engine, graphs, model, rewriting
from resilire.graphs import (_BRUTE_ORDERINGS, Graph, GraphClass, _canonical_key,
                             counts_fit, embeddings, exists_embedding, graph_of,
                             path_length_within, quotient_isolated, single_node)
from resilire.order import Antichain, Wqo, covers, minimize
from resilire.rewriting import SubgraphOrder

from conftest import fixture_path, random_graph, rng_for


def count_embeddings(pattern, host):
    return sum(1 for _ in embeddings(pattern, host))


def longest_path(g):
    """Length (edge count) of a longest simple undirected path: the
    reference for `path_length_within`."""
    best = 0
    incident = defaultdict(list)
    for (s, t, _l) in g.edges.values():
        incident[s].append(t)
        incident[t].append(s)

    def walk(v, seen, length):
        nonlocal best
        if length > best:
            best = length
        for w in incident[v]:
            if w not in seen:
                seen.add(w)
                walk(w, seen, length + 1)
                seen.discard(w)

    for v in g.nodes:
        walk(v, {v}, 0)
    return best


def cycle(n, node_label="a", edge_label="x"):
    nodes = {"n%d" % i: node_label for i in range(n)}
    edges = {"e%d" % i: ("n%d" % i, "n%d" % ((i + 1) % n), edge_label)
             for i in range(n)}
    return Graph(nodes, edges)


def shuffled_copy(g, rng):
    ids = list(g.nodes)
    rng.shuffle(ids)
    renames = {old: "m%d" % i for i, old in enumerate(ids)}
    nodes = {renames[i]: l for i, l in g.nodes.items()}
    eids = list(g.edges)
    rng.shuffle(eids)
    edges = {"f%d" % j: (renames[s], renames[t], l)
             for j, (s, t, l) in enumerate(g.edges[e] for e in eids)}
    return Graph(nodes, edges)


def test_canonical_is_isomorphism_invariant():
    rng = rng_for("canon")
    for _ in range(120):
        g = random_graph(rng, ["a", "b"], ["x", "y"], 6, 8)
        assert g.key() == shuffled_copy(g, rng).key()


def test_canonical_separates_nonisomorphic():
    assert cycle(3).key() != cycle(4).key()
    two = graph_of({"u": "a", "v": "a"}, [("u", "v", "x")])
    other = graph_of({"u": "a", "v": "a"}, [("u", "v", "x"), ("u", "v", "x")])
    assert two.key() != other.key()


def test_canonical_relabels_deterministically():
    g = cycle(5)
    assert g.canonical().nodes == {"n%d" % i: "a" for i in range(5)}
    assert g.canonical().key() == g.key()


def test_embeddings_counts_node_choices():
    pattern = single_node("a")
    host = graph_of({"u": "a", "v": "a"}, [])
    assert count_embeddings(pattern, host) == 2


def test_no_embedding_between_cycles():
    assert not exists_embedding(cycle(3), cycle(4))
    assert not exists_embedding(cycle(4), cycle(3))


def test_identity_embedding_exists():
    rng = rng_for("ident")
    for _ in range(30):
        g = random_graph(rng, ["a", "b"], ["x"], 5, 6)
        assert exists_embedding(g, g)


def brute_force_embeddings(pattern, host):
    """Reference count: try every injective node assignment, then every
    injective edge assignment consistent with it."""
    pn, hn = sorted(pattern.nodes), sorted(host.nodes)
    count = 0
    for images in itertools.permutations(hn, len(pn)):
        vmap = dict(zip(pn, images))
        if any(pattern.nodes[p] != host.nodes[vmap[p]] for p in pn):
            continue
        pe, he = sorted(pattern.edges), sorted(host.edges)
        for eimages in itertools.permutations(he, len(pe)):
            emap = dict(zip(pe, eimages))
            ok = True
            for p, h in emap.items():
                ps, pt, pl = pattern.edges[p]
                hs, ht, hl = host.edges[h]
                if pl != hl or vmap[ps] != hs or vmap[pt] != ht:
                    ok = False
                    break
            if ok:
                count += 1
    return count


def test_embeddings_match_brute_force():
    rng = rng_for("embed-brute")
    for _ in range(40):
        pattern = random_graph(rng, ["a", "b"], ["x"], 3, 3)
        host = random_graph(rng, ["a", "b"], ["x"], 6, 6)
        assert count_embeddings(pattern, host) == brute_force_embeddings(pattern, host)


def test_longest_path_basics():
    assert longest_path(single_node("a")) == 0
    assert longest_path(Graph({}, {})) == 0


def brute_force_longest_path(g):
    best = 0
    edge_list = list(g.edges.values())
    for r in range(1, len(edge_list) + 1):
        for seq in itertools.permutations(edge_list, r):
            for orientation in itertools.product((0, 1), repeat=r):
                nodes = []
                ok = True
                for (s, t, _l), flip in zip(seq, orientation):
                    a, b = (t, s) if flip else (s, t)
                    if not nodes:
                        nodes = [a, b]
                    elif nodes[-1] == a:
                        nodes.append(b)
                    else:
                        ok = False
                        break
                if ok and len(set(nodes)) == len(nodes):
                    best = max(best, r)
    return best


def test_longest_path_triangle_by_enumeration():
    tri = cycle(3)
    assert brute_force_longest_path(tri) == 2
    assert longest_path(tri) == 2


def test_longest_path_alternating_chain():
    g = graph_of(
        {"p1": "m", "l1": "L", "p2": "m", "l2": "L", "p3": "m"},
        [("p1", "l1", "x"), ("l1", "p2", "x"), ("p2", "l2", "x"), ("l2", "p3", "x")],
    )
    assert brute_force_longest_path(g) == 4
    assert longest_path(g) == 4


def test_longest_path_matches_enumeration_randomly():
    rng = rng_for("paths")
    for _ in range(25):
        g = random_graph(rng, ["a"], ["x"], 4, 4)
        assert longest_path(g) == brute_force_longest_path(g)
        bound = rng.randint(0, 4)
        assert path_length_within(g, bound) == (longest_path(g) <= bound)


def largest_component(g):
    parent = {v: v for v in g.nodes}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for (s, t, _l) in g.edges.values():
        parent[root(s)] = root(t)
    return max(Counter(root(v) for v in g.nodes).values(), default=0)


def test_path_bound_agrees_with_the_exhaustive_walk():
    """Both sides of the small-component shortcut give the walk's answer."""
    rng = rng_for("path-bound-shortcut")
    short = walked = 0
    for _ in range(300):
        g = random_graph(rng, ["a"], ["x"], 7, 7)
        bound = rng.randint(0, 3)
        assert path_length_within(g, bound) == (longest_path(g) <= bound), (g, bound)
        if largest_component(g) <= bound + 1:
            short += 1
        else:
            walked += 1
    assert short > 100 and walked > 50


def test_quotient_removes_isolated_labeled_nodes():
    g = graph_of({"p": "pt", "l": "L", "q": "pt"}, [("l", "q", "x")])
    h = quotient_isolated(g, {"pt"})
    assert sorted(h.nodes.values()) == ["L", "pt"]
    assert len(h.edges) == 1


def test_quotient_noop_without_isolated():
    g = graph_of({"p": "pt", "l": "L"}, [("l", "p", "x")])
    assert quotient_isolated(g, {"pt"}) is g


def test_quotient_idempotent():
    rng = rng_for("quotient")
    for _ in range(40):
        g = random_graph(rng, ["pt", "L"], ["x"], 5, 4)
        once = quotient_isolated(g, {"pt"})
        assert quotient_isolated(once, {"pt"}) == once


def test_class_membership():
    klass = GraphClass(max_path=2, node_count=(("L", (1, 2)),))
    ok = graph_of({"l": "L", "p": "a"}, [("l", "p", "x")])
    assert klass.contains(ok)
    assert not klass.contains(graph_of({"a": "a"}, []))  # no L node
    chain = graph_of({"l": "L", "p": "a", "q": "a", "r": "a"},
                     [("l", "p", "x"), ("p", "q", "x"), ("q", "r", "x")])
    assert not klass.contains(chain)  # path of length 3
    # with `subgraph`, admit keeps what embeds in a member: below the L
    # minimum stays, above the L maximum or beyond max_path does not
    bare = graph_of({"a": "a"}, [])
    assert klass.admit(bare) is None and klass.admit(bare, subgraph=True) == bare
    three_l = graph_of({"l%d" % i: "L" for i in range(3)}, [])
    assert klass.admit(three_l, subgraph=True) is None
    assert klass.admit(chain, subgraph=True) is None


# ---------------------------------------------------------------------------
# canonical search with twin pruning against the unpruned search
# ---------------------------------------------------------------------------


# The canonical search as first written, over the graph's string ids
# and its edge dict: the reference for the integer-indexed kernel.


def _refine(g: Graph, colors: Dict[str, int]) -> Dict[str, int]:
    """Iterated neighborhood color refinement (1-WL with edge labels)."""
    n = len(g.nodes)
    while True:
        sigs = {}
        for v in g.nodes:
            out_sig = sorted(
                (l, colors[t]) for (s, t, l) in g.edges.values() if s == v
            )
            in_sig = sorted(
                (l, colors[s]) for (s, t, l) in g.edges.values() if t == v
            )
            sigs[v] = (colors[v], tuple(out_sig), tuple(in_sig))
        ranking = {sig: i for i, sig in enumerate(sorted(set(sigs.values())))}
        new = {v: ranking[sigs[v]] for v in g.nodes}
        if len(set(new.values())) == len(set(colors.values())):
            return new
        colors = new
        if len(set(colors.values())) == n:
            return colors


def _initial_colors(g: Graph) -> Dict[str, int]:
    outd = Counter(s for (s, _t, _l) in g.edges.values())
    ind = Counter(t for (_s, t, _l) in g.edges.values())
    raw = {v: (lab, outd[v], ind[v]) for v, lab in g.nodes.items()}
    ranking = {sig: i for i, sig in enumerate(sorted(set(raw.values())))}
    return {v: ranking[raw[v]] for v in g.nodes}


def _encode(g: Graph, ordering) -> tuple:
    idx = {v: i for i, v in enumerate(ordering)}
    labels = tuple(g.nodes[v] for v in ordering)
    triples = tuple(sorted((idx[s], idx[t], l) for (s, t, l) in g.edges.values()))
    return (labels, triples)


def _cells(g: Graph, colors: Dict[str, int]):
    groups = defaultdict(list)
    for v, c in colors.items():
        groups[c].append(v)
    return [sorted(groups[c]) for c in sorted(groups)]


def reference_min_encoding(g, colors):
    """The canonical search without twin pruning, kept verbatim."""
    cells = _cells(g, colors)
    cost = 1
    for cell in cells:
        cost *= factorial(len(cell))
        if cost > _BRUTE_ORDERINGS:
            break
    if cost <= _BRUTE_ORDERINGS:
        best = None
        for parts in itertools.product(*(itertools.permutations(c) for c in cells)):
            ordering = [v for part in parts for v in part]
            enc = _encode(g, ordering)
            if best is None or enc < best:
                best = enc
        return best
    # Individualize one node of the first ambiguous cell and recurse;
    # the minimum over all choices is an isomorphism invariant.
    target = next(c for c in cells if len(c) > 1)
    fresh = max(colors.values()) + 1
    best = None
    for v in target:
        branched = dict(colors)
        branched[v] = fresh
        enc = reference_min_encoding(g, _refine(g, branched))
        if best is None or enc < best:
            best = enc
    return best


def reference_key(g):
    if not g.nodes:
        return (0, 0, (), ())
    labels, triples = reference_min_encoding(g, _refine(g, _initial_colors(g)))
    return (len(g.nodes), len(g.edges), labels, triples)


def star(n, hub="h", leaf="l", edge="x"):
    nodes = {"hub": hub}
    nodes.update({"v%d" % i: leaf for i in range(n)})
    return Graph(nodes, {"e%d" % i: ("hub", "v%d" % i, edge) for i in range(n)})


def isolated(n, label="l"):
    return Graph({"v%d" % i: label for i in range(n)}, {})


def test_twin_pruned_keys_equal_unpruned_keys():
    rng = rng_for("twins")
    for i in range(2000):
        g = random_graph(rng, ["a", "b"], ["x", "y"], 8, rng.randint(0, 10))
        if g.nodes and i % 4 == 0:  # loops are part of the twin signature
            v = rng.choice(sorted(g.nodes))
            g = Graph(g.nodes, dict(g.edges, loop=(v, v, rng.choice("xy"))))
        assert _canonical_key(g) == reference_key(g)


def test_twin_pruned_keys_on_individualized_symmetric_graphs():
    for n in (6, 7, 8):
        for g in (star(n), isolated(n), star(n, hub="l")):
            assert _canonical_key(g) == reference_key(g)


def cycles(*sizes):
    """Disjoint directed cycles: every node looks alike to refinement."""
    nodes, edges = {}, {}
    for c, size in enumerate(sizes):
        for i in range(size):
            nodes["c%d_%d" % (c, i)] = "a"
            edges["c%d_e%d" % (c, i)] = ("c%d_%d" % (c, i), "c%d_%d" % (c, (i + 1) % size), "x")
    return Graph(nodes, edges)


def hubs(n_hubs, leaves):
    """Hubs with private leaves: leaves of one hub are twins, leaves of
    different hubs are not, yet all leaves share a cell."""
    nodes, edges = {}, {}
    for h in range(n_hubs):
        nodes["h%d" % h] = "h"
        for i in range(leaves):
            nodes["h%d_%d" % (h, i)] = "l"
            edges["h%d_e%d" % (h, i)] = ("h%d" % h, "h%d_%d" % (h, i), "x")
    return Graph(nodes, edges)


def test_twin_pruned_keys_where_cells_mix_twin_classes():
    rng = rng_for("mixed-cells")
    graphs = [cycles(3, 5), cycles(4, 4), cycles(2, 3, 3), cycles(2, 6),
              hubs(2, 3), hubs(4, 2)]
    for g in graphs:
        key = reference_key(g)
        assert _canonical_key(g) == key
        for _ in range(3):
            assert _canonical_key(shuffled_copy(g, rng)) == key


def test_symmetric_keys_are_fast_and_invariant():
    rng = rng_for("symmetric")
    for g in (star(10), isolated(10)):
        start = time.perf_counter()
        key = _canonical_key(g)
        assert time.perf_counter() - start < 0.5
        assert shuffled_copy(g, rng).key() == key


def rich_graph(rng):
    """A random multigraph with loops, parallel edges and, in about a
    third of the draws, a run of isolated twins of a label of their own."""
    g = random_graph(rng, ["a", "b"], ["x", "y"], 6, 8)
    nodes, edges = dict(g.nodes), dict(g.edges)
    for e, d in g.edges.items():
        if rng.random() < 0.25:
            edges["par_" + e] = d
    for v in g.nodes:
        if rng.random() < 0.15:
            edges["loop_" + v] = (v, v, rng.choice("xy"))
    if rng.random() < 0.35:
        nodes.update(("iso%d" % i, "c") for i in range(rng.randint(2, 7)))
    ids = list(nodes)
    rng.shuffle(ids)
    return Graph({v: nodes[v] for v in ids}, edges)


def past_brute_orderings(g):
    """Whether the search individualizes: the refined cells allow more
    than `_BRUTE_ORDERINGS` orderings."""
    cost = 1
    for cell in _cells(g, _refine(g, _initial_colors(g))):
        cost *= factorial(len(cell))
    return cost > _BRUTE_ORDERINGS


def test_indexed_keys_equal_reference_keys_on_rich_graphs():
    rng = rng_for("rich-graphs")
    seen = Counter()
    for _ in range(800):
        g = rich_graph(rng)
        assert _canonical_key(g) == reference_key(g), g
        seen["loops"] += any(s == t for s, t, _l in g.edges.values())
        seen["parallel"] += len(set(g.edges.values())) < len(g.edges)
        seen["isolated twins"] += any(v.startswith("iso") for v in g.nodes)
        seen["individualized"] += past_brute_orderings(g)
    assert min(seen.values()) >= 10, seen


def test_keys_of_the_first_backward_rounds_equal_reference_keys(monkeypatch):
    """Every graph the path game's first four backward rounds canonicalize."""
    built = model.build(model.load(fixture_path("pathgame.json")))
    keyed = []

    def recording(g):
        keyed.append(g)
        return _canonical_key(g)

    monkeypatch.setattr(graphs, "_canonical_key", recording)
    rounds = engine._backward(built.safe, built.backend, built.doc.limits.max_iters)
    assert [k for k, _basis, _stable in itertools.islice(rounds, 5)] == [0, 1, 2, 3, 4]
    monkeypatch.undo()
    assert len(keyed) > 500
    for g in keyed:
        assert _canonical_key(g) == reference_key(g), g


def test_keys_of_the_forward_layers_equal_reference_keys(monkeypatch):
    """Every graph the path game's forward layers to depth 14 canonicalize."""
    built = model.build(model.load(fixture_path("pathgame.json")))
    keyed = []

    def recording(g):
        keyed.append(g)
        return _canonical_key(g)

    monkeypatch.setattr(graphs, "_canonical_key", recording)
    layers = engine.forward_states(built.start, built.backend, 14)
    monkeypatch.undo()
    assert [len(layer) for layer in layers] == [1, 1, 1, 3, 3, 9, 5, 19, 12, 46, 21, 82, 48,
                                                169, 84]
    assert len(keyed) > 1000
    for g in keyed:
        assert _canonical_key(g) == reference_key(g), g


def test_canonical_copy_carries_its_key():
    rng = rng_for("handover")
    for _ in range(50):
        copy = random_graph(rng, ["a", "b"], ["x", "y"], 6, 8).canonical()
        assert copy._key == _canonical_key(copy)


# ---------------------------------------------------------------------------
# cheap refusals agree with the searches they skip
# ---------------------------------------------------------------------------


def random_subgraph(rng, g):
    nodes = {v: l for v, l in g.nodes.items() if rng.random() < 0.8}
    edges = {e: d for e, d in g.edges.items()
             if d[0] in nodes and d[1] in nodes and rng.random() < 0.8}
    return Graph(nodes, edges)


def test_leq_prefilter_never_refuses_an_embedding():
    rng = rng_for("prefilter")
    order = SubgraphOrder()
    outcomes = set()
    for i in range(600):
        b = random_graph(rng, ["a", "b"], ["x", "y"], 6, 8)
        if i % 2:
            a = random_subgraph(rng, b)
        else:
            a = random_graph(rng, ["a", "b"], ["x", "y"], 5, 6)
        expected = exists_embedding(a, b)
        assert order.leq(a, b) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


class ScanSubgraphOrder(SubgraphOrder):
    """The subgraph order on the default antichain index: a `leq` per element."""

    def antichain_index(self):
        return Wqo.antichain_index(self)


def test_subgraph_index_covers_as_the_scan_does(monkeypatch):
    """The index's `covers` and `above` answer as a `leq` scan, and
    search only the graphs that pass `counts_fit`: also after removals
    whose slots graphs with a label new to the index reuse, and for
    queries with labels and triples that no held graph has."""
    rng = rng_for("subgraph-index")
    order = SubgraphOrder()
    searched, search = [], rewriting.exists_embedding
    monkeypatch.setattr(rewriting, "exists_embedding",
                        lambda p, h: searched.append(id(h)) or search(p, h))
    outcomes, tops, refused, unseen = set(), [], 0, 0
    for _ in range(150):
        added = [random_graph(rng, ["a", "b"], ["x", "y"], 4, 4) for _ in range(rng.randint(0, 6))]
        index = order.antichain_index()
        for t in added:
            index.add(t)
        for query in range(6):
            if query == 2:
                for t in added[::2]:
                    index.remove(t)
                fresh = [random_graph(rng, ["a", "c"], ["x", "z"], 4, 4)
                         for _ in added[::2]]
                for t in fresh:
                    index.add(t)
                added = added[1::2] + fresh
            wide = query % 2
            host = random_graph(rng, ["a", "b", "c", "d"][:4 if wide else 2],
                                ["x", "y", "z"][:3 if wide else 2], 6, 8)
            pick = rng.random()
            s = (random_subgraph(rng, rng.choice(added)) if added and pick < 0.4
                 else random_subgraph(rng, host) if pick < 0.6 else host)
            under = [t for t in added if order.leq(t, s)]
            assert index.covers(s) == bool(under), (added, s)
            fit = {id(t) for t in added if counts_fit(t, s)}
            assert {id(t) for t in index.elements(index.at_most(s.label_counts()))} == fit
            over = {id(t) for t in added if order.leq(s, t)}
            searched.clear()
            assert {id(t) for t in index.above(s)} == over, (added, s)
            assert sorted(searched) == sorted(id(t) for t in added if counts_fit(s, t))
            outcomes.add(bool(under))
            tops.append(len(over))
            refused += sum(not counts_fit(t, s) for t in added)
            held = set().union(*(t.label_counts() for t in added))
            unseen += bool(set(s.label_counts()) - held)
    assert outcomes == {True, False} and refused > 100 and unseen > 100
    assert 0.2 < sum(map(bool, tops)) / len(tops) < 0.8 and max(tops) >= 2


def test_covers_prepares_the_host_once_per_call(monkeypatch):
    rng = rng_for("covers-plan")
    order = SubgraphOrder()
    plans, real = [], graphs.host_plan
    for module in (graphs, rewriting):
        monkeypatch.setattr(module, "host_plan", lambda host: plans.append(host) or real(host))
    outcomes, shared = set(), 0
    for _ in range(300):
        basis = minimize([g for g in (random_graph(rng, ["a", "b"], ["x"], 4, 4)
                                      for _ in range(20)) if len(g.edges) >= 2][:6], order)
        host = max((random_graph(rng, ["a", "b"], ["x"], 7, 12) for _ in range(3)),
                   key=lambda g: len(g.edges))
        expected = any(order.leq(t, host) for t in basis)
        plans.clear()
        assert covers(basis, host) == expected
        assert plans in ([], [host])
        outcomes.add(expected)
        shared += sum(counts_fit(t, host) for t in basis) >= 2
    assert outcomes == {True, False} and shared > 60


def test_minimize_with_the_subgraph_index_equals_the_scan():
    rng = rng_for("subgraph-minimize")
    sizes = []
    for _ in range(40):
        sample = [g for g in (random_graph(rng, ["a", "b"], ["x"], 6, 7) for _ in range(40))
                  if len(g.edges) >= 3][:16]
        bases = []
        for order in (SubgraphOrder(), ScanSubgraphOrder()):
            live = Antichain(order, minimize(sample[:8], order))
            live.merge(sample[8:])
            bases.append([g.key() for g in live.basis()])
        assert bases[0] == bases[1]
        sizes.append(len(bases[0]))
    assert min(sizes) >= 2 and sum(sizes) > 200


def test_nodes_only_embedding_respects_loops():
    looped = Graph({"v": "a"}, {"e": ("v", "v", "x")})
    two_cycle = graph_of({"u": "a", "w": "a"}, [("u", "w", "x"), ("w", "u", "x")])
    assert not exists_embedding(looped, two_cycle)
    assert exists_embedding(looped, looped)


def test_admit_agrees_with_normalize_then_contains():
    rng = rng_for("admit")
    classes = [GraphClass(max_path=2, quotient_labels=frozenset({"pt"})),
               GraphClass(node_count=(("L", (1, 2)),), quotient_labels=frozenset({"pt"})),
               GraphClass(max_path=3, control_labels=frozenset({"L"}))]
    admitted = {False: 0, True: 0}
    for _ in range(300):
        g = random_graph(rng, ["pt", "L"], ["x"], 5, 4)
        for klass, subgraph in itertools.product(classes, (False, True)):
            norm = quotient_isolated(g, klass.quotient_labels).canonical()
            got = klass.admit(g, subgraph=subgraph)
            if klass.contains(norm, subgraph=subgraph):
                admitted[subgraph] += 1
                assert (got.nodes, got.edges) == (norm.nodes, norm.edges)
            else:
                assert got is None
    assert 0 < admitted[False] < admitted[True]


def test_lifts_add_the_least_isolated_nodes_for_each_minimum():
    """Each lift is g plus isolated nodes; a label-set minimum gives one
    lift per label, a minimum met already adds nothing, and one that only
    quotient nodes could meet gives none."""
    g = graph_of({"x": "a", "y": "b"}, [("x", "y", "e")])
    klass = GraphClass(node_count=(("a", (3, None)), ("b", (1, 2))),
                       control_labels=frozenset({"p", "q"}))
    lifts = klass.lifts(g)
    assert sorted(h.key() for h in lifts) == sorted(
        graph_of({"x": "a", "y": "b", "1": "a", "2": "a", "c": c},
                 [("x", "y", "e")]).key() for c in "pq")
    assert all(klass.contains(h) and SubgraphOrder().leq(g, h) for h in lifts)
    assert GraphClass(node_count=(("b", (1, None)),)).lifts(g) == [g]
    assert GraphClass(node_count=(("t", (1, None)),),
                      quotient_labels=frozenset({"t"})).lifts(g) == []


def test_lifts_add_nodes_under_ids_the_graph_lacks():
    """Added nodes are named "+<i>" from i = len(g) on, skipping ids that g
    already has: an added node never replaces one of g's."""
    klass = GraphClass(node_count=(("a", (2, None)),))
    assert [h.nodes for h in klass.lifts(Graph({"x": "a"}, {}))] == [{"x": "a", "+1": "a"}]
    assert [h.nodes for h in klass.lifts(Graph({"+1": "a"}, {}))] == [{"+1": "a", "+2": "a"}]
    g = Graph({"+2": "b", "y": "a"}, {"e": ("+2", "y", "x")})
    assert [(h.nodes, h.edges) for h in klass.lifts(g)] == [
        ({"+2": "b", "y": "a", "+3": "a"}, g.edges)]
