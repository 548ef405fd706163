"""Directed labeled multigraphs sized for exhaustive analysis.

States of the graph backend stay small (a path-length bound keeps them
that way), so isomorphism and embedding questions are answered by
explicit search: canonical forms via color refinement plus
individualization, embeddings via backtracking with degree and label
pruning.  Graphs are immutable once constructed; equality and hashing
are by canonical form, i.e. up to isomorphism.

The canonical search prunes twins (nodes an automorphism swaps), which
keeps symmetric states such as stars cheap without changing any key.
Candidates are filtered by class membership, an isomorphism invariant,
before they are canonicalized (`GraphClass.admit`).
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from math import factorial
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

    __slots__ = ("nodes", "edges", "_key", "_hash", "_counts", "_match")

    def __init__(self, nodes: Dict[str, str], edges: Dict[str, Tuple[str, str, str]]):
        for eid, (src, tgt, _lab) in edges.items():
            if src not in nodes or tgt not in nodes:
                raise ValueError("edge %r references a missing node" % eid)
        self.nodes = dict(nodes)
        self.edges = dict(edges)
        self._key = None
        self._hash = None
        self._counts = None
        self._match = None

    # -- basic views ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def degree(self, node_id: str) -> int:
        return sum(1 for (s, t, _l) in self.edges.values() if s == node_id or t == node_id)

    def label_counts(self) -> Tuple[Counter, Counter]:
        """Node and edge label multiplicities, computed once."""
        if self._counts is None:
            self._counts = (Counter(self.nodes.values()),
                            Counter(l for (_s, _t, l) in self.edges.values()))
        return self._counts

    # -- identity up to isomorphism -------------------------------------

    def key(self):
        if self._key is None:
            self._key = _canonical_key(self)
        return self._key

    def __eq__(self, other):
        return isinstance(other, Graph) and self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

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


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


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


def _twin_signatures(g: Graph) -> Dict[str, tuple]:
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


def _min_encoding(g: Graph, colors: Dict[str, int], twins: Dict[str, tuple]) -> tuple:
    cells = _cells(g, colors)
    # The brute-force/individualize choice and the target cell ignore
    # twins: keys must not depend on how much of the search is pruned.
    cost = 1
    for cell in cells:
        cost *= factorial(len(cell))
        if cost > _BRUTE_ORDERINGS:
            break
    if cost <= _BRUTE_ORDERINGS:
        best = None
        for parts in itertools.product(*(_twin_orderings(c, twins) for c in cells)):
            ordering = [v for part in parts for v in part]
            enc = _encode(g, ordering)
            if best is None or enc < best:
                best = enc
        return best
    # Individualize one node of the first ambiguous cell and recurse;
    # the minimum over all choices is an isomorphism invariant, and
    # twins give equal branches, so one per twin class suffices.
    target = next(c for c in cells if len(c) > 1)
    fresh = max(colors.values()) + 1
    best = None
    for v in {twins[u]: u for u in target}.values():
        branched = dict(colors)
        branched[v] = fresh
        enc = _min_encoding(g, _refine(g, branched), twins)
        if best is None or enc < best:
            best = enc
    return best


def _canonical_key(g: Graph) -> tuple:
    if not g.nodes:
        return (0, 0, (), ())
    colors = _refine(g, _initial_colors(g))
    discrete = len(set(colors.values())) == len(g.nodes)
    labels, triples = _min_encoding(g, colors, {} if discrete else _twin_signatures(g))
    return (len(g.nodes), len(g.edges), labels, triples)


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


def embeddings(pattern: Graph, host: Graph, nodes_only: bool = False) -> Iterator[dict]:
    """All total injective label-preserving morphisms pattern -> host.

    Yields {"nodes": vmap, "edges": emap} dicts.  With nodes_only=True
    only node maps are yielded (edge capacity is still verified, so a
    full morphism exists for every yielded node map).
    """
    if len(pattern.nodes) > len(host.nodes) or len(pattern.edges) > len(host.edges):
        return
    padj, order, pairs = _pattern_plan(pattern)
    hadj = _Adj(host)
    hosts_by_label = defaultdict(list)
    for v, lab in sorted(host.nodes.items()):
        hosts_by_label[lab].append(v)

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
                yield from _edge_assignments(pattern, host, dict(vmap))
            return
        pv = order[i]
        for hv in hosts_by_label[pattern.nodes[pv]]:
            if hv in used or not capacity_ok(pv, hv):
                continue
            vmap[pv] = hv
            used.add(hv)
            yield from assign(i + 1)
            del vmap[pv]
            used.discard(hv)

    yield from assign(0)


def _edge_assignments(pattern: Graph, host: Graph, vmap: dict) -> Iterator[dict]:
    pgroups = defaultdict(list)
    for eid, (s, t, l) in sorted(pattern.edges.items()):
        pgroups[(vmap[s], vmap[t], l)].append(eid)
    hgroups = defaultdict(list)
    for eid, (s, t, l) in sorted(host.edges.items()):
        hgroups[(s, t, l)].append(eid)
    keys = sorted(pgroups)
    pools = []
    for k in keys:
        need = pgroups[k]
        have = hgroups.get(k, [])
        if len(have) < len(need):
            return
        pools.append([dict(zip(need, perm)) for perm in itertools.permutations(have, len(need))])
    for combo in itertools.product(*pools):
        emap: Dict[str, str] = {}
        for part in combo:
            emap.update(part)
        yield {"nodes": dict(vmap), "edges": emap}


def exists_embedding(pattern: Graph, host: Graph) -> bool:
    return next(embeddings(pattern, host, nodes_only=True), None) is not None


def counts_fit(pattern: Graph, host: Graph) -> bool:
    """Necessary for an embedding: the host has at least as many nodes
    and edges of every label as the pattern."""
    if len(pattern.nodes) > len(host.nodes) or len(pattern.edges) > len(host.edges):
        return False
    (pn, pe), (hn, he) = pattern.label_counts(), host.label_counts()
    return (all(hn[l] >= c for l, c in pn.items())
            and all(he[l] >= c for l, c in pe.items()))


# ---------------------------------------------------------------------------
# paths and normalization
# ---------------------------------------------------------------------------


def path_length_within(g: Graph, bound: int) -> bool:
    """True iff every simple undirected path has at most `bound` edges."""
    incident = defaultdict(set)
    for (s, t, _l) in g.edges.values():
        incident[s].add(t)
        incident[t].add(s)

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

    return all(walk(v, {v}, 0) for v in g.nodes)


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

    def admit(self, g: Graph, subgraph: bool = False) -> Optional[Graph]:
        """The canonical quotient of g if `contains(g, subgraph)` holds for
        it, else None.  Membership is an isomorphism invariant, so it is
        decided before canonicalizing."""
        g = quotient_isolated(g, self.quotient_labels)
        return g.canonical() if self.contains(g, subgraph) else None

    def contains(self, g: Graph, subgraph: bool = False) -> bool:
        """Membership; with `subgraph`, whether g embeds in some member,
        which checks only what subgraphs inherit: the path bound, the
        count maxima, and at most one control and one marker node."""
        for labels, lo, hi in self.bounds:
            n = sum(lab in labels for lab in g.nodes.values())
            if (hi is not None and n > hi) or (lo is not None and n < lo and not subgraph):
                return False
        return self.max_path is None or path_length_within(g, self.max_path)

    def control_of(self, g: Graph) -> Optional[str]:
        return _label_in(g, self.control_labels)

    def marker_of(self, g: Graph) -> Optional[str]:
        return _label_in(g, self.marker_labels)


def _label_in(g: Graph, labels) -> Optional[str]:
    for lab in g.nodes.values():
        if lab in labels:
            return lab
    return None
