"""Single-pushout graph rewriting over a bounded graph class.

Rules are partial morphisms given by explicit id correspondences that
are injective and label-preserving on their domain.  Forward
application deletes the match images of unmapped left-hand items (plus
any edges left dangling), then adds fresh copies of the created
right-hand items.  Every step is one such application: the backward
step applies the inverse rule at the overlaps of the right-hand side
with a target graph that meet the dangling condition, which gives the
minimal graphs reaching the target's upward closure in one step.

Both graph steps prune overlaps by the class's node counts, and the
backward one by the dangling condition, on the node correspondence,
before any overlap graph is built.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .errors import GuardExceeded
from .graphs import (EMPTY_GRAPH, Graph, GraphClass, counts_fit, embeddings,
                     exists_embedding)
from .limits import DEFAULT_LIMITS, Limits
from .order import Wqo


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
        problems = rule_problems(left, right, self.node_map, self.edge_map)
        if problems:
            raise ValueError("rule %r: %s" % (name, "; ".join(problems)))
        self.deleted_nodes = sorted(set(left.nodes) - set(self.node_map))
        self.deleted_edges = sorted(set(left.edges) - set(self.edge_map))
        self.created_nodes = sorted(set(right.nodes) - set(self.node_map.values()))
        self.created_edges = sorted(set(right.edges) - set(self.edge_map.values()))
        self._inverse = None

    def inverse(self) -> "Rule":
        """The rule read right to left: it deletes what this rule creates
        and creates what this rule deletes.  Built once."""
        if self._inverse is None:
            self._inverse = Rule(self.name, self.owner, self.right, self.left,
                                 {r: l for l, r in self.node_map.items()},
                                 {r: l for l, r in self.edge_map.items()})
            self._inverse._inverse = self
        return self._inverse

    def __repr__(self):
        return "Rule(%s)" % self.name


def rule_problems(left: Graph, right: Graph, nm: dict, em: dict) -> List[str]:
    """Why the id maps are not an injective, label-preserving partial
    morphism from `left` to `right` (empty when they are one)."""
    problems = []
    for lid, rid in nm.items():
        if lid not in left.nodes:
            problems.append("mapped node %r not in left graph" % lid)
        elif rid not in right.nodes:
            problems.append("node %r maps to missing %r" % (lid, rid))
        elif left.nodes[lid] != right.nodes[rid]:
            problems.append("node map %r->%r changes the label" % (lid, rid))
    for lid, rid in em.items():
        if lid not in left.edges:
            problems.append("mapped edge %r not in left graph" % lid)
            continue
        if rid not in right.edges:
            problems.append("edge %r maps to missing %r" % (lid, rid))
            continue
        ls, lt, ll = left.edges[lid]
        rs, rt, rl = right.edges[rid]
        if ll != rl:
            problems.append("edge map %r->%r changes the label" % (lid, rid))
        if nm.get(ls) != rs or nm.get(lt) != rt:
            problems.append("edge map %r->%r breaks incidence" % (lid, rid))
    if len(set(nm.values())) != len(nm) or len(set(em.values())) != len(em):
        problems.append("map is not injective on its domain")
    return problems


def identity_rule(name: str, owner: str) -> Rule:
    return Rule(name, owner, EMPTY_GRAPH, EMPTY_GRAPH, {})


def matches(rule: Rule, g: Graph) -> Iterator[dict]:
    """All total injective match morphisms of the rule's left side."""
    return embeddings(rule.left, g)


def apply_rule(rule: Rule, g: Graph, match: dict) -> Graph:
    """Apply the rule at a match; deletion wins and dangling edges go."""
    vmap, emap = match["nodes"], match["edges"]
    if vmap.keys() != rule.left.nodes.keys() or emap.keys() != rule.left.edges.keys():
        raise ValueError("match must be total on the left-hand side")
    doomed_nodes = {vmap[v] for v in rule.deleted_nodes}
    doomed_edges = {emap[e] for e in rule.deleted_edges}
    nodes = {v: l for v, l in g.nodes.items() if v not in doomed_nodes}
    edges = {
        e: d
        for e, d in g.edges.items()
        if e not in doomed_edges and d[0] not in doomed_nodes and d[1] not in doomed_nodes
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
    """All one-step SPO successors inside the class, canonical,
    deduplicated by key and unordered; `minimize` orders them."""
    seen = {}
    for rule in rules:
        for m in matches(rule, g):
            h = klass.admit(apply_rule(rule, g, m))
            if h is not None:
                seen.setdefault(h.key(), h)
    return list(seen.values())


# ---------------------------------------------------------------------------
# overlaps
# ---------------------------------------------------------------------------


class Overlap(NamedTuple):
    """A jointly surjective pair of injective embeddings A >-> U <-< B,
    kept as U and the embedding of A.

    U's ids are "a:<id>" for items from A (merged items keep the A id)
    and "b:<id>" for items only from B.  `match` embeds A into U as the
    {"nodes", "edges"} maps `apply_rule` takes; all overlaps of one
    enumeration share it.
    """

    u: Graph
    match: dict


def overlaps(a: Graph, b: Graph, limits: Limits = DEFAULT_LIMITS,
             windows: Sequence[Tuple[frozenset, int, int]] = (),
             fresh: Sequence[str] = ()) -> List[Overlap]:
    """Enumerate every way of gluing `a` and `b` along a partial
    injective label-preserving correspondence (the disjoint union is
    the empty correspondence).  Distinct correspondences give distinct
    overlaps; no two results are isomorphic as spans.

    Two prunings skip correspondences before any graph is built:
    `windows` holds (labels, lo, hi) triples, and only correspondences
    pairing from lo to hi nodes with a label in `labels` are kept;
    `fresh` names nodes of `a` on which U may gain no edge of `b`, so a
    node of `b` paired with one must have all its edges merged (the
    dangling condition of deleting the fresh nodes from U).  Without
    them every overlap is enumerated.
    """
    out: List[Overlap] = []
    node_cap = limits.overlap_nodes
    if node_cap is None:
        node_cap = len(a.nodes) + len(b.nodes)
    a_ids = sorted(a.nodes)
    match = {"nodes": {aid: "a:" + aid for aid in a.nodes},
             "edges": {aeid: "a:" + aeid for aeid in a.edges}}
    b_by_label = defaultdict(list)
    for bid, lab in sorted(b.nodes.items()):
        b_by_label[lab].append(bid)
    # Per window: the nodes paired, and the most it can still reach.
    hits = [[w for w, (labels, _lo, _hi) in enumerate(windows) if a.nodes[aid] in labels]
            for aid in a_ids]
    paired = [0] * len(windows)
    reach = [sum(lab in labels for lab in a.nodes.values()) for labels, _lo, _hi in windows]

    def fits(ws) -> bool:
        return all(windows[w][1] <= reach[w] and paired[w] <= windows[w][2] for w in ws)

    def build(node_pairs: Dict[str, str]):
        merged_b = set(node_pairs.values())
        pinned = {node_pairs[aid] for aid in fresh if aid in node_pairs}
        # Edge pairs are only possible between edges whose endpoints are
        # identified and whose labels agree; group and enumerate
        # injective partial matchings per group.  A group at a pinned
        # node must merge all its edges of `b`.
        groups = defaultdict(lambda: ([], []))
        for aeid, (s, t, l) in sorted(a.edges.items()):
            if s in node_pairs and t in node_pairs:
                groups[(node_pairs[s], node_pairs[t], l)][0].append(aeid)
        for beid, (s, t, l) in sorted(b.edges.items()):
            if s in merged_b and t in merged_b:
                groups[(s, t, l)][1].append(beid)
            elif s in pinned or t in pinned:
                return
        pools = []
        for (s, t, _l), (a_es, b_es) in sorted(groups.items()):
            least = len(b_es) if s in pinned or t in pinned else 0
            options = [dict(zip(subset, image))
                       for k in range(least, min(len(a_es), len(b_es)) + 1)
                       for subset in itertools.combinations(a_es, k)
                       for image in itertools.permutations(b_es, k)]
            if not options:
                return
            pools.append(options)
        u_size = len(a.nodes) + len(b.nodes) - len(node_pairs)
        if u_size > node_cap:
            raise GuardExceeded(
                "overlap of %d nodes exceeds the %d-node cap" % (u_size, node_cap))
        for combo in itertools.product(*pools):
            edge_pairs: Dict[str, str] = {}
            for part in combo:
                edge_pairs.update(part)
            out.append(Overlap(_glue(a, b, node_pairs, edge_pairs), match))
            if len(out) > limits.overlap_count:
                raise GuardExceeded(
                    "more than %d overlaps enumerated" % limits.overlap_count)

    def choose(i: int, node_pairs: Dict[str, str], used_b: set):
        if i == len(a_ids):
            build(node_pairs)
            return
        aid, ws = a_ids[i], hits[i]
        for w in ws:
            reach[w] -= 1
        if fits(ws):
            choose(i + 1, node_pairs, used_b)
        for w in ws:
            reach[w] += 1
            paired[w] += 1
        if fits(ws):
            for bid in b_by_label[a.nodes[aid]]:
                if bid in used_b:
                    continue
                node_pairs[aid] = bid
                used_b.add(bid)
                choose(i + 1, node_pairs, used_b)
                del node_pairs[aid]
                used_b.discard(bid)
        for w in ws:
            paired[w] -= 1

    if fits(range(len(windows))):
        choose(0, {}, set())
    return out


def _pair_windows(bounds, *graphs) -> list:
    """(labels, lo, hi) count bounds as `overlaps` windows, for a graph
    with one node in S fewer per node pair in S than `graphs` hold
    together (base): it has lo to hi nodes in S iff the pairs number
    base - hi to base - lo."""
    windows = []
    for labels, lo, hi in bounds:
        base = sum(lab in labels for g in graphs for lab in g.nodes.values())
        windows.append((labels, 0 if hi is None else base - hi, base - (lo or 0)))
    return windows


def _glue(a, b, node_pairs, edge_pairs) -> Graph:
    """The union U of `a` and `b` identified along the pairs."""
    nodes = {"a:" + aid: lab for aid, lab in a.nodes.items()}
    home = {bid: "a:" + aid for aid, bid in node_pairs.items()}
    for bid, lab in b.nodes.items():
        if bid not in home:
            home[bid] = "b:" + bid
            nodes["b:" + bid] = lab
    edges = {"a:" + aeid: ("a:" + s, "a:" + t, l) for aeid, (s, t, l) in a.edges.items()}
    merged_edges = set(edge_pairs.values())
    for beid, (s, t, l) in b.edges.items():
        if beid not in merged_edges:
            edges["b:" + beid] = (home[s], home[t], l)
    return Graph(nodes, edges)


# ---------------------------------------------------------------------------
# backward step
# ---------------------------------------------------------------------------


def rule_predecessor_basis(rule: Rule, target: Graph, klass: GraphClass,
                           limits: Limits = DEFAULT_LIMITS) -> List[Graph]:
    """Class graphs G with a one-step successor above `target`, among
    them the minimal ones: the inverse rule applied at each overlap of
    the rule's right side with the target that meets the dangling
    condition.

    The condition drops an overlap in which a target-only edge touches
    a node the rule creates: no host can supply an edge on a fresh
    node.  The candidate has |left ∩ S| + |target ∩ S| - (pairs in S)
    nodes with a label in S, so the class's count bounds on labels the
    quotient leaves alone prune the overlaps too, before any is built.
    The results, filtered to the class and canonical, generate the
    one-step predecessor ideal; the caller's fixed-point loop supplies
    the reflexive part.  They come in enumeration order and may repeat
    or dominate one another: `minimize` makes them a basis.
    """
    inverse = rule.inverse()
    bounds = [b for b in klass.bounds if not b[0] & klass.quotient_labels]
    windows = _pair_windows(bounds, rule.left, target)
    out = []
    for ov in overlaps(rule.right, target, limits, windows, rule.created_nodes):
        cand = klass.admit(apply_rule(inverse, ov.u, ov.match))
        if cand is not None:
            out.append(cand)
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
    """

    def __init__(self, rules, klass: GraphClass, limits: Limits = DEFAULT_LIMITS):
        self.rules = list(rules)
        self.klass = klass
        self.limits = limits
        self.order = SubgraphOrder()

    def post_step(self, g: Graph) -> List[Graph]:
        return successors(g, self.rules, self.klass)

    def pre_basis(self, g: Graph) -> List[Graph]:
        """Generators of the one-step predecessors of g's upward closure,
        deduplicated by key across all rules and unordered; `minimize`
        orders them."""
        out: Dict[tuple, Graph] = {}
        for rule in self.rules:
            for cand in rule_predecessor_basis(rule, g, self.klass, self.limits):
                out.setdefault(cand.key(), cand)
        return list(out.values())

    def post_basis(self, g: Graph) -> List[Graph]:
        """Generators of the one-step successors of g's upward closure,
        deduplicated by key and unordered; `minimize` makes them a basis.

        A host above g matches a rule's left side in an overlap of the
        two, and applying the rule there gives a successor below every
        successor of such a host.  Results are filtered only by the
        class conditions that subgraphs of members inherit, so one
        below a `node_count` minimum stays: a larger host brings its
        successors into the class.
        """
        klass = self.klass
        maxima = [(labels, None, hi) for labels, _lo, hi in klass.bounds]
        out: Dict[tuple, Graph] = {}
        for rule in self.rules:
            windows = _pair_windows(maxima, rule.left, g)
            for ov in overlaps(rule.left, g, self.limits, windows):
                if not klass.contains(ov.u, subgraph=True):
                    continue
                h = klass.admit(apply_rule(rule, ov.u, ov.match), subgraph=True)
                if h is not None:
                    out.setdefault(h.key(), h)
        return list(out.values())
