"""Directed labeled multigraphs sized for exhaustive analysis.

States of the graph backend stay small (a path-length bound keeps them
that way), so isomorphism and embedding questions are answered by
explicit search: canonical forms via color refinement plus
individualization, embeddings via backtracking with degree and label
pruning.  Graphs are immutable once constructed; equality and hashing
are by canonical form, i.e. up to isomorphism.

The canonical search runs on node indices with per-node (label, index)
edge lists, leaves a coloring that starts discrete unrefined, refines
only the nodes that share their color, and prunes twins (nodes an
automorphism swaps) without changing any key; where every ambiguous
cell is one twin class, as in token graphs and stars, it lists the
cells without searching.  Given the host's twins, the embedding search
prunes them and parallel host edges the same way, for callers that
need morphisms only up to host automorphisms.  A caller may prepare a
host once for many embedding searches (`host_plan`).
Candidates are filtered by class membership, an isomorphism invariant,
before they are canonicalized (`GraphClass.admit`); a caller that knows
a candidate's simple paths to be a member's skips the path walk.  A
caller that steps a batch of states passes one `seen` set: the labelled
forms (node ids with labels, edge triples: 2-tuples) of the graphs given
and the keys (4-tuples) of their quotients within the count bounds.  An
identical repeat is dropped before it is quotiented and keyed, an
isomorphic one before the path walk and the copy.
A state's control state and owner marker are one node each (`with_control`).
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from math import factorial, prod
from typing import Dict, Iterator, Optional, Tuple

# Above this many candidate orderings the canonical search individualizes
# one node of the first ambiguous cell instead of brute-forcing.
_BRUTE_ORDERINGS = 5040

# "n<i>" / "e<i>": the ids of canonical copies, shared by all of them.
_NODE_IDS, _EDGE_IDS = [], []


class Graph:
    """A finite directed multigraph with node and edge labels.

    nodes: id -> label.  edges: id -> (src, tgt, label).  Ids are opaque
    strings, unique per graph; two graphs are equal when isomorphic.
    """

    __slots__ = ("nodes", "edges", "_key", "_counts", "_match")

    def __init__(self, nodes: Dict[str, str], edges: Dict[str, Tuple[str, str, str]]):
        for eid, (src, tgt, _lab) in edges.items():
            if src not in nodes or tgt not in nodes:
                raise ValueError("edge %r references a missing node" % eid)
        self.nodes = dict(nodes)
        self.edges = dict(edges)
        self._key = None
        self._counts = None
        self._match = None

    # -- basic views ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def label_counts(self) -> Counter:
        """Node labels and (source, edge, target) label triples, counted once."""
        if self._counts is None:
            n, e = self.nodes, self.edges.values()
            self._counts = Counter(n.values()) + Counter((n[s], l, n[t]) for s, t, l in e)
        return self._counts

    # -- identity up to isomorphism -------------------------------------

    def key(self):
        if self._key is None:
            self._key = _canonical_key(self)
        return self._key

    def __eq__(self, other):
        return isinstance(other, Graph) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        ns = ",".join("%s:%s" % (i, l) for i, l in sorted(self.nodes.items()))
        es = ",".join("%s>%s:%s" % (s, t, l) for (s, t, l) in sorted(self.edges.values()))
        return "Graph(%s | %s)" % (ns, es)

    def canonical(self) -> "Graph":
        """An isomorphic copy with ids n0..nk / e0.. in canonical order."""
        key = self.key()
        n, m, labels, triples = key
        nid, eid = _NODE_IDS, _EDGE_IDS
        for ids, prefix, size in ((nid, "n", n), (eid, "e", m)):
            ids.extend("%s%d" % (prefix, i) for i in range(len(ids), size))
        nodes = {nid[i]: lab for i, lab in enumerate(labels)}
        edges = {
            eid[j]: (nid[s], nid[t], lab)
            for j, (s, t, lab) in enumerate(triples)
        }
        copy = Graph(nodes, edges)
        copy._key = key
        return copy


EMPTY_GRAPH = Graph({}, {})


def graph_of(node_labels, edge_triples) -> Graph:
    """Convenience constructor: nodes from an id->label mapping, edges
    from (src, tgt, label) triples with generated edge ids."""
    edges = {"e%d" % i: t for i, t in enumerate(edge_triples)}
    return Graph(dict(node_labels), edges)


def single_node(label: str) -> Graph:
    return Graph({"n0": label}, {})


CONTROL_NODE = "ctl"
MARKER_NODE = "mrk"


def _fresh_id(nodes: dict, base: str) -> str:
    if base not in nodes:
        return base
    i = 0
    while "%s%d" % (base, i) in nodes:
        i += 1
    return "%s%d" % (base, i)


def with_control(g: Graph, state: Optional[str] = None,
                 marker: Optional[str] = None) -> Graph:
    """Disjointly add the control node and the marker node, each if given."""
    nodes = dict(g.nodes)
    if state is not None:
        nodes[_fresh_id(nodes, CONTROL_NODE)] = state
    if marker is not None:
        nodes[_fresh_id(nodes, MARKER_NODE)] = marker
    return Graph(nodes, g.edges)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def _ranks(sigs: list) -> list:
    """Each signature's rank among the distinct ones: a coloring."""
    ranking = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
    return [ranking[sig] for sig in sigs]


def _refine(adj, colors: list) -> list:
    """Iterated neighborhood color refinement (1-WL with edge labels);
    a singleton cannot split, so its node is signed by its color alone."""
    n, k = len(colors), len(set(colors))
    while True:
        size = Counter(colors)
        colors = _ranks([(c, tuple(sorted([(l, colors[t]) for l, t in out])),
                          tuple(sorted([(l, colors[s]) for l, s in inn])))
                         if size[c] > 1 else (c,)
                         for c, out, inn in zip(colors, *adj)])
        was, k = k, max(colors) + 1
        if k in (was, n):
            return colors


def _encode(labels: list, triples: list, ordering) -> tuple:
    pos = [0] * len(ordering)
    for i, v in enumerate(ordering):
        pos[v] = i
    return (tuple(labels[v] for v in ordering),
            tuple(sorted([(pos[s], pos[t], l) for s, t, l in triples])))


def twin_signatures(g: Graph) -> Dict[str, tuple]:
    """Nodes with equal signatures (label, loop labels, labeled out- and
    in-neighbours) are twins.  Twins are never adjacent, so swapping two
    of them is an automorphism; it preserves any coloring in which they
    share a cell."""
    sig = defaultdict(lambda: ([], [], []))
    for (s, t, l) in g.edges.values():
        if s == t:
            sig[s][0].append(l)
        else:
            sig[s][1].append((t, l))
            sig[t][2].append((s, l))
    return {v: (lab,) + tuple(tuple(sorted(part)) for part in sig[v])
            for v, lab in g.nodes.items()}


def _twin_orderings(cell, twins) -> Iterator[tuple]:
    """Orderings of a cell up to swaps of twins: one per arrangement of
    its twin classes, each class in a fixed order."""
    if len(cell) < 2:
        yield tuple(cell)
        return
    for v in {twins[u]: u for u in cell}.values():
        for tail in _twin_orderings([u for u in cell if u != v], twins):
            yield (v,) + tail


def _min_encoding(kernel, colors: list, twins) -> tuple:
    """The least encoding over the orderings that list the color cells
    in color order; `kernel` is (labels, triples, adj) by node index,
    `colors` a stable coloring and `twins` holds the twin signatures of
    the nodes of its ambiguous cells.

    Where every ambiguous cell is one twin class there is no search:
    swapping twins is an automorphism, so all orderings it compares
    encode alike, and individualizing a twin moves it behind every cell
    and splits nothing else, as each node meets a class's twins alike.
    The result lists the cells in color order, then the nodes the search
    individualizes: one of the first ambiguous cell at a time while the
    cells allow more than `_BRUTE_ORDERINGS` orderings."""
    labels, triples, adj = kernel
    cells = [[] for _ in range(max(colors) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    ambiguous = [c for c in cells if len(c) > 1]
    # The brute-force/individualize choice and the target cell ignore
    # twins: keys must not depend on how much of the search is pruned.
    cost = prod(factorial(len(cell)) for cell in ambiguous)
    if all(len({twins[v] for v in cell}) == 1 for cell in ambiguous):
        moved = []
        for cell in ambiguous:
            while cost > _BRUTE_ORDERINGS and len(cell) > 1:
                cost //= len(cell)
                moved.append(cell.pop())
        return _encode(labels, triples, [v for cell in cells for v in cell] + moved)
    if cost <= _BRUTE_ORDERINGS:
        cell_orderings = [_twin_orderings(c, twins) for c in cells]
        return min(_encode(labels, triples, sum(parts, ()))
                   for parts in itertools.product(*cell_orderings))
    # Individualize one node of the first ambiguous cell and recurse;
    # the minimum over all choices is an isomorphism invariant, and
    # twins give equal branches, so one per twin class suffices.
    target = ambiguous[0]
    fresh = [len(cells)]
    return min(_min_encoding(kernel, _refine(adj, colors[:v] + fresh + colors[v + 1:]), twins)
               for v in {twins[u]: u for u in target}.values())


def _canonical_key(g: Graph) -> tuple:
    """The least encoding of g, searched over node indices 0..n-1 with
    per-node (label, index) lists of out- and in-edges."""
    n = len(g.nodes)
    if not n:
        return (0, 0, (), ())
    index = {v: i for i, v in enumerate(g.nodes)}
    labels = list(g.nodes.values())
    triples, out, inn = [], [[] for _ in labels], [[] for _ in labels]
    for s, t, l in g.edges.values():
        s, t = index[s], index[t]
        triples.append((s, t, l))
        out[s].append((l, t))
        inn[t].append((l, s))
    colors = _ranks([(lab, len(o), len(i)) for lab, o, i in zip(labels, out, inn)])
    # A discrete coloring is stable: refining it would rank it again.
    if max(colors) + 1 < n:
        colors = _refine((out, inn), colors)
    if max(colors) + 1 == n:  # discrete: the coloring is the ordering
        labels = tuple(lab for _c, lab in sorted(zip(colors, labels)))
        triples = tuple(sorted([(colors[s], colors[t], l) for s, t, l in triples]))
        return (n, len(triples), labels, triples)
    # Twins as `twin_signatures` has them, with a loop's far end as -1,
    # for the nodes of ambiguous cells: the only ones the search orders.
    size = Counter(colors)
    twins = [(lab, tuple(sorted([(l, -1 if t == v else t) for l, t in o])),
              tuple(sorted([e for e in i if e[1] != v]))) if size[c] > 1 else None
             for v, (c, lab, o, i) in enumerate(zip(colors, labels, out, inn))]
    labels, triples = _min_encoding((labels, triples, (out, inn)), colors, twins)
    return (n, len(triples), labels, triples)


# ---------------------------------------------------------------------------
# embeddings (total injective label-preserving morphisms)
# ---------------------------------------------------------------------------


class _Adj:
    """Edge multiplicities and degrees for the matcher."""

    __slots__ = ("between", "outdeg", "indeg")

    def __init__(self, g: Graph):
        between, outdeg, indeg = {}, {}, {}
        for e in g.edges.values():
            between[e] = between.get(e, 0) + 1
            outdeg[e[0]] = outdeg.get(e[0], 0) + 1
            indeg[e[1]] = indeg.get(e[1], 0) + 1
        self.between, self.outdeg, self.indeg = between, outdeg, indeg


def _pattern_plan(p: Graph):
    """The matcher's per-pattern work, done once per pattern graph: its
    adjacency, node order and edge (label, count) lists per node pair."""
    if p._match is None:
        adj = _Adj(p)
        pairs = defaultdict(list)
        for (s, t, l), cnt in adj.between.items():
            pairs[(s, t)].append((l, cnt))
        p._match = (adj, _pattern_order(p, adj), pairs)
    return p._match


def _pattern_order(p: Graph, adj: _Adj):
    """Node order for backtracking: stay connected, rare labels first."""
    neigh = defaultdict(set)
    for (s, t, _l) in p.edges.values():
        neigh[s].add(t)
        neigh[t].add(s)
    label_freq = Counter(p.nodes.values())
    remaining = set(p.nodes)
    order = []
    while remaining:
        connected = [v for v in remaining if any(u in neigh[v] for u in order)]
        pool = connected or sorted(remaining)
        pick = min(
            pool,
            key=lambda v: (label_freq[p.nodes[v]],
                           -(adj.outdeg.get(v, 0) + adj.indeg.get(v, 0)), v),
        )
        order.append(pick)
        remaining.discard(pick)
    return order


def host_plan(host: Graph) -> tuple:
    """The matcher's per-host work, for any number of patterns: adjacency,
    nodes per label, edge ids per (src, tgt, label).  No graph keeps it."""
    by_label, parallel = defaultdict(list), defaultdict(list)
    for v, lab in sorted(host.nodes.items()):
        by_label[lab].append(v)
    for eid, e in sorted(host.edges.items()):
        parallel[e].append(eid)
    return _Adj(host), by_label, parallel


def embeddings(pattern: Graph, host: Graph, nodes_only: bool = False,
               twins: Optional[Dict[str, tuple]] = None, plan=None) -> Iterator[dict]:
    """All total injective label-preserving morphisms pattern -> host.

    Yields {"nodes": vmap, "edges": emap} dicts.  With nodes_only=True
    only node maps are yielded (edge capacity is still verified, so a
    full morphism exists for every yielded node map).

    Given the host's `twin_signatures` as `twins`, only one morphism per
    orbit of the host's twin swaps and parallel-edge swaps is yielded:
    each depth of the search tries one host node per twin class, and
    each group of parallel host edges gets one injection.  Every
    morphism is one of these followed by an automorphism of the host.
    `plan` is the host's `host_plan`, built unless given.
    """
    if len(pattern.nodes) > len(host.nodes) or len(pattern.edges) > len(host.edges):
        return
    padj, order, pairs = _pattern_plan(pattern)
    hadj, hosts_by_label, parallel = plan or host_plan(host)

    vmap: Dict[str, str] = {}
    used = set()

    def capacity_ok(pv, hv):
        if (padj.outdeg.get(pv, 0) > hadj.outdeg.get(hv, 0)
                or padj.indeg.get(pv, 0) > hadj.indeg.get(hv, 0)):
            return False
        between = hadj.between
        for l, cnt in pairs.get((pv, pv), ()):
            if cnt > between.get((hv, hv, l), 0):
                return False
        for pu, hu in vmap.items():
            for l, cnt in pairs.get((pv, pu), ()):
                if cnt > between.get((hv, hu, l), 0):
                    return False
            for l, cnt in pairs.get((pu, pv), ()):
                if cnt > between.get((hu, hv, l), 0):
                    return False
        return True

    def assign(i):
        if i == len(order):
            if nodes_only:
                yield {"nodes": dict(vmap), "edges": None}
            else:
                yield from _edge_assignments(pattern, parallel, dict(vmap), twins is not None)
            return
        pv = order[i]
        tried = set()
        for hv in hosts_by_label[pattern.nodes[pv]]:
            if hv in used:
                continue
            if twins is not None:
                if twins[hv] in tried:
                    continue
                tried.add(twins[hv])
            if not capacity_ok(pv, hv):
                continue
            vmap[pv] = hv
            used.add(hv)
            yield from assign(i + 1)
            del vmap[pv]
            used.discard(hv)

    yield from assign(0)


def _edge_assignments(pattern: Graph, parallel: dict, vmap: dict,
                      one: bool) -> Iterator[dict]:
    """The edge maps over a node map, given the host's edge ids per
    (src, tgt, label): every one, or with `one` a single one, since all
    injections into a group of parallel host edges are swaps of each
    other."""
    pgroups = defaultdict(list)
    for eid, (s, t, l) in sorted(pattern.edges.items()):
        pgroups[(vmap[s], vmap[t], l)].append(eid)
    keys = sorted(pgroups)
    pools = []
    for k in keys:
        need = pgroups[k]
        have = parallel.get(k, [])
        if len(have) < len(need):
            return
        images = [have[:len(need)]] if one else itertools.permutations(have, len(need))
        pools.append([dict(zip(need, image)) for image in images])
    for combo in itertools.product(*pools):
        emap: Dict[str, str] = {}
        for part in combo:
            emap.update(part)
        yield {"nodes": dict(vmap), "edges": emap}


def exists_embedding(pattern: Graph, host: Graph) -> bool:
    return next(embeddings(pattern, host, nodes_only=True), None) is not None


def counts_fit(pattern: Graph, host: Graph) -> bool:
    """Necessary for an embedding: the host has at least as many nodes of
    every label, and edges of every `label_counts` triple, as the pattern."""
    if len(pattern.nodes) > len(host.nodes) or len(pattern.edges) > len(host.edges):
        return False
    have = host.label_counts()
    return all(have[f] >= c for f, c in pattern.label_counts().items())


# ---------------------------------------------------------------------------
# paths and normalization
# ---------------------------------------------------------------------------


def path_length_within(g: Graph, bound: int) -> bool:
    """True iff every simple undirected path has at most `bound` edges."""
    incident = defaultdict(set)
    for (s, t, _l) in g.edges.values():
        incident[s].add(t)
        incident[t].add(s)
    # A simple path stays in one component and visits each node once,
    # so components of at most bound + 1 nodes need no walk.
    placed, starts = set(), []
    for v in g.nodes:
        if v not in placed:
            component, stack = {v}, [v]
            while stack:
                for w in incident[stack.pop()] - component:
                    component.add(w)
                    stack.append(w)
            placed |= component
            if len(component) > bound + 1:
                starts += component

    def walk(v, seen, length):
        if length > bound:
            return False
        for w in incident[v]:
            if w not in seen:
                seen.add(w)
                if not walk(w, seen, length + 1):
                    return False
                seen.discard(w)
        return True

    return all(walk(v, {v}, 0) for v in starts)


def quotient_isolated(g: Graph, labels) -> Graph:
    """Drop isolated nodes whose label is in `labels` (a normalization
    applied before canonicalization when the model asks for it)."""
    if not labels:
        return g
    touched = set()
    for (s, t, _l) in g.edges.values():
        touched.add(s)
        touched.add(t)
    keep = {
        v: lab
        for v, lab in g.nodes.items()
        if v in touched or lab not in labels
    }
    if len(keep) == len(g.nodes):
        return g
    return Graph(keep, g.edges)


# ---------------------------------------------------------------------------
# graph classes (the state sets of graph transition systems)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphClass:
    """Membership test for the state set of a graph backend.

    max_path bounds the longest simple undirected path.  node_count maps
    a label to an inclusive (min, max) range (None = unbounded side).
    control_labels / marker_labels, when nonempty, require exactly one
    node carrying some label from the set.  quotient_labels are the
    labels whose isolated nodes are erased by normalization.
    """

    max_path: Optional[int] = None
    node_count: Tuple[Tuple[str, Tuple[Optional[int], Optional[int]]], ...] = ()
    control_labels: frozenset = frozenset()
    marker_labels: frozenset = frozenset()
    quotient_labels: frozenset = frozenset()

    @cached_property
    def bounds(self) -> Tuple[Tuple[frozenset, Optional[int], Optional[int]], ...]:
        """The count conditions as (labels, lo, hi): a member has from lo
        to hi nodes (None = unbounded side) with a label in `labels`."""
        out = [(frozenset((lab,)), lo, hi) for lab, (lo, hi) in self.node_count]
        out += [(labels, 1, 1) for labels in (self.control_labels, self.marker_labels)
                if labels]
        return tuple(out)

    def admit(self, g: Graph, subgraph: bool = False, paths: bool = True,
              seen: Optional[set] = None) -> Optional[Graph]:
        """The canonical quotient of g if `contains(g, subgraph, paths)`
        holds for it, else None.  Membership is an isomorphism invariant,
        so it is decided before canonicalizing.  With `seen`, the
        labelled forms of earlier graphs and the keys of earlier
        quotients within the count bounds, a repeat is refused, first on
        its labelled form (node ids with labels, edge triples: a 2-tuple,
        never equal to a 4-tuple key), then on its key.  Both are added:
        an identical graph is never quotiented or keyed, and only a
        class's first gets the path walk."""
        if seen is not None:
            form = (tuple(sorted(g.nodes.items())), tuple(sorted(g.edges.values())))
            if form in seen:
                return None
            seen.add(form)
        g = quotient_isolated(g, self.quotient_labels)
        if seen is not None:
            if not self._counts_hold(g, subgraph) or g.key() in seen:
                return None
            seen.add(g.key())
        return g.canonical() if self.contains(g, subgraph, paths) else None

    def contains(self, g: Graph, subgraph: bool = False, paths: bool = True) -> bool:
        """Membership; with `subgraph`, whether g embeds in some member,
        which checks only what subgraphs inherit: the path bound, the
        count maxima, and at most one control and one marker node.
        Without `paths` the path bound goes untested: the caller knows
        that each simple path of g is one of a graph that meets it."""
        return self._counts_hold(g, subgraph) and (
            not paths or self.max_path is None or path_length_within(g, self.max_path))

    def _counts_hold(self, g: Graph, subgraph: bool) -> bool:
        for labels, lo, hi in self.bounds:
            n = sum(lab in labels for lab in g.nodes.values())
            if (hi is not None and n > hi) or (lo is not None and n < lo and not subgraph):
                return False
        return True

    def lifts(self, g: Graph) -> list:
        """The least graphs made of g and isolated nodes that meet every
        count minimum; each member above a normal g lies above one.
        Normalization erases isolated nodes with a quotient label, so
        none is added: a minimum only they could meet has no lift.  Added
        nodes take the first ids "+<i>", i from the node count up, not taken."""
        out = [g]
        for labels, lo, _hi in self.bounds:
            grown = []
            for h in out:
                short = (lo or 0) - sum(lab in labels for lab in h.nodes.values())
                free = [v for v in map("+%d".__mod__, range(len(h), 2 * len(h) + short))
                        if v not in h.nodes]
                grown += [h] if short <= 0 else [
                    Graph({**h.nodes, **dict(zip(free, extra))}, h.edges)
                    for extra in itertools.combinations_with_replacement(
                        sorted(labels - self.quotient_labels), short)]
            out = grown
        return out

    def control_of(self, g: Graph) -> Optional[str]:
        return _label_in(g, self.control_labels)

    def marker_of(self, g: Graph) -> Optional[str]:
        return _label_in(g, self.marker_labels)


def _label_in(g: Graph, labels) -> Optional[str]:
    for lab in g.nodes.values():
        if lab in labels:
            return lab
    return None
