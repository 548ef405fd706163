"""Single-pushout graph rewriting over a bounded graph class.

Rules are partial morphisms given by explicit id correspondences that
are injective and label-preserving on their domain.  Forward
application deletes the match images of unmapped left-hand items (plus
any edges left dangling), then adds fresh copies of the created
right-hand items.  The backward step enumerates overlaps of the
right-hand side with a target graph and reconstructs the minimal
graphs that can reach the target's upward closure in one application.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Dict, Iterator, List, Optional

from .errors import GuardExceeded
from .graphs import (Graph, GraphClass, counts_fit, embeddings, exists_embedding,
                     quotient_isolated)
from .limits import DEFAULT_LIMITS, Limits
from .order import Basis, Wqo, minimize


class Rule:
    """An SPO rule: left graph, right graph, and the partial morphism
    between them as explicit (left id, right id) pairs."""

    def __init__(self, name: str, owner: str, left: Graph, right: Graph,
                 node_map, edge_map=()):
        self.name = name
        self.owner = owner
        self.left = left
        self.right = right
        self.node_map = dict(node_map)
        self.edge_map = dict(edge_map)
        self._validate()
        self.deleted_nodes = sorted(set(left.nodes) - set(self.node_map))
        self.deleted_edges = sorted(set(left.edges) - set(self.edge_map))
        self.created_nodes = sorted(set(right.nodes) - set(self.node_map.values()))
        self.created_edges = sorted(set(right.edges) - set(self.edge_map.values()))

    def _validate(self):
        problems = self.check_well_formed()
        if problems:
            raise ValueError("rule %r: %s" % (self.name, "; ".join(problems)))

    def check_well_formed(self) -> List[str]:
        problems = []
        nm, em = self.node_map, self.edge_map
        for lid, rid in nm.items():
            if lid not in self.left.nodes:
                problems.append("mapped node %r not in left graph" % lid)
            elif rid not in self.right.nodes:
                problems.append("node %r maps to missing %r" % (lid, rid))
            elif self.left.nodes[lid] != self.right.nodes[rid]:
                problems.append("node map %r->%r changes the label" % (lid, rid))
        for lid, rid in em.items():
            if lid not in self.left.edges:
                problems.append("mapped edge %r not in left graph" % lid)
                continue
            if rid not in self.right.edges:
                problems.append("edge %r maps to missing %r" % (lid, rid))
                continue
            ls, lt, ll = self.left.edges[lid]
            rs, rt, rl = self.right.edges[rid]
            if ll != rl:
                problems.append("edge map %r->%r changes the label" % (lid, rid))
            if nm.get(ls) != rs or nm.get(lt) != rt:
                problems.append("edge map %r->%r breaks incidence" % (lid, rid))
        if len(set(nm.values())) != len(nm) or len(set(em.values())) != len(em):
            problems.append("map is not injective on its domain")
        return problems

    def __repr__(self):
        return "Rule(%s)" % self.name


def identity_rule(name: str, owner: str) -> Rule:
    from .graphs import EMPTY_GRAPH
    return Rule(name, owner, EMPTY_GRAPH, EMPTY_GRAPH, {})


def matches(rule: Rule, g: Graph) -> Iterator[dict]:
    """All total injective match morphisms of the rule's left side."""
    return embeddings(rule.left, g)


def apply_rule(rule: Rule, g: Graph, match: dict) -> Graph:
    """Apply the rule at a match; deletion wins and dangling edges go."""
    vmap, emap = match["nodes"], match["edges"]
    if set(vmap) != set(rule.left.nodes) or set(emap) != set(rule.left.edges):
        raise ValueError("match must be total on the left-hand side")
    doomed_nodes = {vmap[v] for v in rule.deleted_nodes}
    doomed_edges = {emap[e] for e in rule.deleted_edges}
    nodes = {v: l for v, l in g.nodes.items() if v not in doomed_nodes}
    edges = {
        e: (s, t, l)
        for e, (s, t, l) in g.edges.items()
        if e not in doomed_edges and s not in doomed_nodes and t not in doomed_nodes
    }
    # Glue in fresh copies of created items along the preserved part.
    placed: Dict[str, str] = {}
    for lid, rid in rule.node_map.items():
        placed[rid] = vmap[lid]
    for i, rid in enumerate(rule.created_nodes):
        nid = "new:n%d" % i
        nodes[nid] = rule.right.nodes[rid]
        placed[rid] = nid
    for i, rid in enumerate(rule.created_edges):
        rs, rt, rl = rule.right.edges[rid]
        edges["new:e%d" % i] = (placed[rs], placed[rt], rl)
    return Graph(nodes, edges)


def successors(g: Graph, rules, klass: GraphClass) -> List[Graph]:
    """All one-step SPO successors inside the class, canonical and
    deduplicated, in canonical-key order."""
    seen = {}
    for rule in rules:
        for m in matches(rule, g):
            h = klass.admit(apply_rule(rule, g, m))
            if h is not None:
                seen.setdefault(h.key(), h)
    return [seen[k] for k in sorted(seen)]


# ---------------------------------------------------------------------------
# overlaps
# ---------------------------------------------------------------------------


class Overlap:
    """A jointly surjective pair of injective embeddings A >-> U <-< B.

    U's node ids are "a:<id>" for items from A (merged items keep the A
    id) and "b:<id>" for items only from B.  node_pairs / edge_pairs
    record which A items were identified with which B items.
    """

    __slots__ = ("u", "node_pairs", "edge_pairs", "a_nodes", "b_nodes", "a_edges", "b_edges")

    def __init__(self, u, node_pairs, edge_pairs, a_nodes, b_nodes, a_edges, b_edges):
        self.u = u
        self.node_pairs = node_pairs
        self.edge_pairs = edge_pairs
        self.a_nodes = a_nodes
        self.b_nodes = b_nodes
        self.a_edges = a_edges
        self.b_edges = b_edges


def overlaps(a: Graph, b: Graph, limits: Limits = DEFAULT_LIMITS) -> List[Overlap]:
    """Enumerate every way of gluing `a` and `b` along a partial
    injective label-preserving correspondence (the disjoint union is
    the empty correspondence).  Distinct correspondences give distinct
    overlaps; no two results are isomorphic as spans."""
    out: List[Overlap] = []
    node_cap = limits.overlap_nodes
    if node_cap is None:
        node_cap = len(a.nodes) + len(b.nodes)
    a_ids = sorted(a.nodes)
    b_by_label = defaultdict(list)
    for bid, lab in sorted(b.nodes.items()):
        b_by_label[lab].append(bid)

    def build(node_pairs: Dict[str, str]):
        merged_b = set(node_pairs.values())
        u_size = len(a.nodes) + len(b.nodes) - len(node_pairs)
        if u_size > node_cap:
            raise GuardExceeded(
                "overlap of %d nodes exceeds the %d-node cap" % (u_size, node_cap))
        # Edge pairs are only possible between edges whose endpoints are
        # identified and whose labels agree; group and enumerate
        # injective partial matchings per group.
        groups = defaultdict(lambda: ([], []))
        for aeid, (s, t, l) in sorted(a.edges.items()):
            if s in node_pairs and t in node_pairs:
                groups[(node_pairs[s], node_pairs[t], l)][0].append(aeid)
        for beid, (s, t, l) in sorted(b.edges.items()):
            if s in merged_b and t in merged_b:
                groups[(s, t, l)][1].append(beid)
        pools = []
        for gkey in sorted(groups):
            a_es, b_es = groups[gkey]
            if not a_es or not b_es:
                continue
            options = [{}]
            for k in range(1, min(len(a_es), len(b_es)) + 1):
                for subset in itertools.combinations(a_es, k):
                    for image in itertools.permutations(b_es, k):
                        options.append(dict(zip(subset, image)))
            pools.append(options)
        for combo in itertools.product(*pools) if pools else [()]:
            edge_pairs: Dict[str, str] = {}
            for part in combo:
                edge_pairs.update(part)
            out.append(_assemble(a, b, node_pairs, edge_pairs))
            if len(out) > limits.overlap_count:
                raise GuardExceeded(
                    "more than %d overlaps enumerated" % limits.overlap_count)

    def choose(i: int, node_pairs: Dict[str, str], used_b: set):
        if i == len(a_ids):
            build(node_pairs)
            return
        aid = a_ids[i]
        choose(i + 1, node_pairs, used_b)
        for bid in b_by_label[a.nodes[aid]]:
            if bid in used_b:
                continue
            node_pairs[aid] = bid
            used_b.add(bid)
            choose(i + 1, node_pairs, used_b)
            del node_pairs[aid]
            used_b.discard(bid)

    choose(0, {}, set())
    return out


def _assemble(a, b, node_pairs, edge_pairs) -> Overlap:
    b_node_home = {}
    nodes = {}
    a_nodes = {}
    for aid, lab in a.nodes.items():
        nodes["a:" + aid] = lab
        a_nodes[aid] = "a:" + aid
    b_nodes = {}
    for aid, bid in node_pairs.items():
        b_node_home[bid] = "a:" + aid
        b_nodes[bid] = "a:" + aid
    for bid, lab in b.nodes.items():
        if bid not in b_node_home:
            nodes["b:" + bid] = lab
            b_nodes[bid] = "b:" + bid
    merged_edges = set(edge_pairs.values())
    edges = {}
    a_edges = {}
    for aeid, (s, t, l) in a.edges.items():
        edges["a:" + aeid] = ("a:" + s, "a:" + t, l)
        a_edges[aeid] = "a:" + aeid
    b_edges = {}
    for aeid, beid in edge_pairs.items():
        b_edges[beid] = "a:" + aeid
    for beid, (s, t, l) in b.edges.items():
        if beid not in merged_edges:
            edges["b:" + beid] = (b_nodes[s], b_nodes[t], l)
            b_edges[beid] = "b:" + beid
    u = Graph(nodes, edges)
    return Overlap(u, dict(node_pairs), dict(edge_pairs),
                   a_nodes, b_nodes, a_edges, b_edges)


# ---------------------------------------------------------------------------
# backward step
# ---------------------------------------------------------------------------


def rule_predecessor_basis(rule: Rule, target: Graph, klass: GraphClass,
                           order: Optional[Wqo] = None,
                           limits: Limits = DEFAULT_LIMITS) -> List[Graph]:
    """Minimal class graphs G with a one-step successor above `target`.

    For each overlap of the rule's right side with the target:

    * drop the overlap if a target edge that is not an image of a
      right-hand edge touches a node the rule creates (no host can
      supply such an edge on a fresh node);
    * delete the created items;
    * glue in a fresh copy of the deleted part of the left side along
      the preserved correspondence.

    The union over all overlaps, filtered to the class, generates the
    one-step predecessor ideal; the caller's fixed-point loop supplies
    the reflexive part.
    """
    results: Dict[tuple, Graph] = {}
    for ov in overlaps(rule.right, target, limits):
        created_u_nodes = {ov.a_nodes[rid] for rid in rule.created_nodes}
        created_u_edges = {ov.a_edges[rid] for rid in rule.created_edges}
        # (a) reject impossible targets: a pure-target edge on a created node
        rejected = False
        for beid, ueid in ov.b_edges.items():
            if ueid.startswith("b:"):
                s, t, _l = ov.u.edges[ueid]
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
            placed[lid] = ov.a_nodes[rid]
        for i, lid in enumerate(rule.deleted_nodes):
            nid = "del:n%d" % i
            nodes[nid] = rule.left.nodes[lid]
            placed[lid] = nid
        for i, lid in enumerate(rule.deleted_edges):
            ls, lt, ll = rule.left.edges[lid]
            edges["del:e%d" % i] = (placed[ls], placed[lt], ll)
        cand = klass.admit(Graph(nodes, edges))
        if cand is not None:
            results.setdefault(cand.key(), cand)
    out = [results[k] for k in sorted(results)]
    if order is not None:
        out = list(minimize(out, order).elements)
    return out


# ---------------------------------------------------------------------------
# the subgraph order and the graph backend
# ---------------------------------------------------------------------------


class SubgraphOrder(Wqo):
    """Subgraph ordering: G below H iff G embeds injectively into H.

    On a class of bounded path length this is a well-quasi-order, and
    control/marker nodes compare equal exactly when their labels agree
    (each state carries exactly one of them, and embeddings preserve
    labels).  Embedding checks are memoized by canonical key, after a
    label-count test that refuses most pairs without a search.
    """

    def __init__(self):
        self._cache: Dict[tuple, bool] = {}

    def leq(self, a: Graph, b: Graph) -> bool:
        if not counts_fit(a, b):
            return False
        ck = (a.key(), b.key())
        hit = self._cache.get(ck)
        if hit is None:
            hit = exists_embedding(a, b)
            self._cache[ck] = hit
        return hit

    def key(self, a: Graph):
        return a.key()

    def size(self, a: Graph) -> int:
        return len(a.nodes) + len(a.edges)


class GraphBackend:
    """State space of a graph transition system: a rule set acting on a
    class of graphs, with forward steps and one-step ideal steps in both
    directions.

    Backward steps are memoized per (rule, state) because saturation
    revisits surviving basis elements on every round.
    """

    kind = "gts"

    def __init__(self, rules, klass: GraphClass, limits: Limits = DEFAULT_LIMITS):
        self.rules = list(rules)
        self.klass = klass
        self.limits = limits
        self.order = SubgraphOrder()
        self._pre_cache: Dict[tuple, tuple] = {}

    def normalize(self, g: Graph) -> Graph:
        return self.klass.normalize(g)

    def post_step(self, g: Graph) -> List[Graph]:
        return successors(g, self.rules, self.klass)

    def pre_basis(self, g: Graph) -> List[Graph]:
        out: Dict[tuple, Graph] = {}
        for i, rule in enumerate(self.rules):
            ck = (i, g.key())
            cached = self._pre_cache.get(ck)
            if cached is None:
                cached = tuple(rule_predecessor_basis(
                    rule, g, self.klass, order=None, limits=self.limits))
                self._pre_cache[ck] = cached
            for cand in cached:
                out.setdefault(cand.key(), cand)
        return [out[k] for k in sorted(out)]

    def post_basis(self, g: Graph) -> List[Graph]:
        """Basis of the one-step successors of g's upward closure.

        A host above g matches a rule's left side in an overlap of the
        two, and applying the rule there gives a successor below every
        successor of such a host.  Results are filtered only by the
        class conditions that subgraphs of members inherit, so one
        below a `node_count` minimum stays: a larger host brings its
        successors into the class.
        """
        klass = self.klass
        out: Dict[tuple, Graph] = {}
        for rule in self.rules:
            for ov in overlaps(rule.left, g, self.limits):
                if not klass.contains(ov.u, subgraph=True):
                    continue
                match = {"nodes": ov.a_nodes, "edges": ov.a_edges}
                h = quotient_isolated(apply_rule(rule, ov.u, match),
                                      klass.quotient_labels)
                if klass.contains(h, subgraph=True):
                    h = h.canonical()
                    out.setdefault(h.key(), h)
        return [out[k] for k in sorted(out)]

    def basis(self, graphs) -> Basis:
        return minimize([self.normalize(g) for g in graphs], self.order)
