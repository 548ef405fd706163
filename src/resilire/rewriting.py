"""Single-pushout graph rewriting over a bounded graph class.

Rules are partial morphisms given by explicit id correspondences that
are injective and label-preserving on their domain.  Forward
application deletes the match images of unmapped left-hand items (plus
any edges left dangling), then adds fresh copies of the created
right-hand items.  Every graph made from a pairing of a rule's left
side with a host is one such application, and one builder (`_apply`)
makes them all: at a total match (`apply_rule`), at an overlap of the
left side with a graph (the forward ideal step), for the inverse rule
at an overlap of the right-hand side with a target graph that meets
the dangling condition (the backward step), which gives the minimal
graphs reaching the target's upward closure in one step, and for the
rule that keeps a graph (`identity_rule`) at an overlap of it with
another: their gluing, a generator of the meet of the two upward
closures, which the forward step also tests against the class.

Matches and overlaps are enumerated once per orbit of two cheap
symmetries of the host graph: swaps of twin nodes and of parallel
edges.  Copies in one orbit give isomorphic results, so every step
still yields each result up to isomorphism.  Label counts gate both
searches: a rule whose left side has more nodes or edges of some label
than the host is not matched (`counts_fit`), and an overlap search ends
at once when the two graphs cannot pair enough nodes for a window
(`_windows_fit`).  Both graph steps prune
overlaps by the class's node-count maxima, and the backward one by the
dangling condition, on the node correspondence, before its edges are
paired.  Their results are ideal generators: they are filtered
only by what subgraphs of class members inherit
(`GraphClass.admit(g, subgraph=True)`), come once per isomorphism class
within one call, which steps a whole frontier, and are made a basis by
`minimize`.  The backward step first lifts its target to the class's
node-count minima with isolated nodes.  The forward steps prepare each
host once for all rules, and test the path bound only on results of
rules that can lengthen a path (`Rule.keeps_paths`).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Dict, Iterator, List, Sequence, Tuple

from .errors import GuardExceeded
from .graphs import (EMPTY_GRAPH, Graph, GraphClass, counts_fit, embeddings,
                     exists_embedding, host_plan, twin_signatures, with_control)
from .limits import DEFAULT_LIMITS, Limits
from .order import FeatureMasks, Wqo


class Rule:
    """An SPO rule: left graph, right graph, and the partial morphism
    between them as explicit (left id, right id) pairs.

    `keeps_paths` holds when no result has a simple path its host lacks:
    every created edge is a loop, or joins two preserved nodes that an
    edge of `left` joins already, so created nodes stay isolated."""

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
        back = {r: l for l, r in self.node_map.items()}
        joined = {frozenset(e[:2]) for e in left.edges.values()}
        self.keeps_paths = all(
            s == t or (s in back and t in back and frozenset((back[s], back[t])) in joined)
            for s, t, _l in map(right.edges.get, self.created_edges))
        self._inverse = None

    def inverse(self) -> "Rule":
        """The rule read right to left: it deletes what this rule creates
        and creates what this rule deletes.  Built once.  The backward
        step applies it at pairings of `right` with a target, through
        the builder that serves every step (`_apply`)."""
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


def identity_rule(name: str, owner: str, g: Graph = EMPTY_GRAPH) -> Rule:
    """The rule that keeps `g`; at a pairing it glues g to the host."""
    return Rule(name, owner, g, g, {v: v for v in g.nodes}, {e: e for e in g.edges})


def matches(rule: Rule, g: Graph, twins=None, plan=None) -> Iterator[dict]:
    """Total injective match morphisms of the rule's left side, one per
    orbit of g's twin swaps and parallel-edge swaps; `twins` is g's
    `twin_signatures` and `plan` its `host_plan`, each computed unless
    given.  Matches in one orbit give isomorphic results, so these give
    every result up to isomorphism; `graphs.embeddings` without `twins`
    yields every match.  A left side whose label counts exceed g's
    (`counts_fit`) is not searched."""
    if not counts_fit(rule.left, g):
        return iter(())
    if twins is None:
        twins = twin_signatures(g)
    return embeddings(rule.left, g, twins=twins, plan=plan)


def apply_rule(rule: Rule, g: Graph, match: dict) -> Graph:
    """Apply the rule at a match; deletion wins and dangling edges go."""
    vmap, emap = match["nodes"], match["edges"]
    if vmap.keys() != rule.left.nodes.keys() or emap.keys() != rule.left.edges.keys():
        raise ValueError("match must be total on the left-hand side")
    return _apply(rule, g, vmap, emap)


def _apply(rule: Rule, g: Graph, node_pairs: dict, edge_pairs: dict) -> Graph:
    """The rule applied at a partial pairing of its left side with g,
    given as maps from left ids to the ids of g they are identified
    with: up to isomorphism, the rule at the left side's items of the
    gluing of the left side and g along the pairs, which is what the
    rule that keeps the left side (`identity_rule`) gives here.  g's
    items keep their ids; the right side's items that no pair places
    (created items, and copies of unpaired preserved ones) get
    "new:n<i>" / "new:e<i>" ids that g lacks.  Deletion wins and
    dangling edges go.  This is the one builder of every graph made
    from an `overlaps` pairing."""
    doomed = {node_pairs[v] for v in rule.deleted_nodes if v in node_pairs}
    doomed_edges = {edge_pairs[e] for e in rule.deleted_edges if e in edge_pairs}
    nodes = {v: l for v, l in g.nodes.items() if v not in doomed}
    edges = {e: d for e, d in g.edges.items()
             if e not in doomed_edges and d[0] not in doomed and d[1] not in doomed}
    placed = {rid: node_pairs[lid] for lid, rid in rule.node_map.items() if lid in node_pairs}
    unplaced = [rid for lid, rid in rule.node_map.items() if lid not in node_pairs]
    k = 0
    for rid in rule.created_nodes + unplaced:
        while "new:n%d" % k in g.nodes:
            k += 1
        placed[rid] = nid = "new:n%d" % k
        nodes[nid] = rule.right.nodes[rid]
        k += 1
    unplaced = [rid for lid, rid in rule.edge_map.items() if lid not in edge_pairs]
    k = 0
    for rid in rule.created_edges + unplaced:
        while "new:e%d" % k in g.edges:
            k += 1
        s, t, l = rule.right.edges[rid]
        edges["new:e%d" % k] = (placed[s], placed[t], l)
        k += 1
    return Graph(nodes, edges)


def successors(g: Graph, rules, klass: GraphClass) -> List[Graph]:
    """All one-step SPO successors inside the class, canonical, each
    key once and unordered; `minimize` orders them.

    g must be a member of the class: then a result of a rule that
    `keeps_paths` meets the path bound, and only the other rules' results
    are walked for it.  g's twins and host plan serve every rule."""
    seen, out = set(), []
    twins, plan = twin_signatures(g), host_plan(g)
    for rule in rules:
        for m in matches(rule, g, twins, plan):
            h = klass.admit(apply_rule(rule, g, m), paths=not rule.keeps_paths, seen=seen)
            if h is not None:
                out.append(h)
    return out


# ---------------------------------------------------------------------------
# overlaps
# ---------------------------------------------------------------------------


def overlaps(a: Graph, b: Graph, limits: Limits = DEFAULT_LIMITS,
             windows: Sequence[Tuple[frozenset, int]] = (),
             fresh: Sequence[str] = (), twins=None) -> List[Tuple[dict, dict]]:
    """Enumerate the ways of gluing `a` and `b` along a partial
    injective label-preserving correspondence (the disjoint union is
    the empty correspondence), each as its node and edge pairs: maps
    from ids of `a` to the ids of `b` they are identified with, at
    which `_apply` applies a rule whose left side is `a`; the rule that
    keeps `a` (`identity_rule`) builds the overlap U itself.  One is
    given per orbit of `b`'s twin swaps and parallel-edge swaps: a node
    of `a` is paired with one node of each twin class of `b`, and a
    subset of `a`'s edges with one image in each group of parallel
    edges of `b`.  Every overlap is isomorphic, by an isomorphism fixing
    the items of `a`, to a given one.

    Two prunings skip correspondences before their edges are paired:
    `windows` holds (labels, least) pairs, and only correspondences
    pairing at least `least` nodes with a label in `labels` are kept
    (none is sought when the label counts of `a` and `b` allow fewer);
    `fresh` names nodes of `a` on which U may gain no edge of `b`, so a
    node of `b` paired with one must have all its edges merged (the
    dangling condition of deleting the fresh nodes from U).  Without
    them every orbit is enumerated.  `twins` is `b`'s `twin_signatures`,
    computed unless given.
    """
    out: List[Tuple[dict, dict]] = []
    if not _windows_fit(a, b, windows):
        return out
    node_cap = limits.overlap_nodes
    if node_cap is None:
        node_cap = len(a.nodes) + len(b.nodes)
    a_ids = sorted(a.nodes)
    b_by_label = defaultdict(list)
    for bid, lab in sorted(b.nodes.items()):
        b_by_label[lab].append(bid)
    if twins is None:
        twins = twin_signatures(b)
    # Per window: the most pairs it can still reach.
    hits = [[w for w, (labels, _least) in enumerate(windows) if a.nodes[aid] in labels]
            for aid in a_ids]
    reach = [sum(lab in labels for lab in a.nodes.values()) for labels, _least in windows]

    def fits(ws) -> bool:
        return all(windows[w][1] <= reach[w] for w in ws)

    def build(node_pairs: Dict[str, str]):
        merged_b = set(node_pairs.values())
        pinned = {node_pairs[aid] for aid in fresh if aid in node_pairs}
        # Edge pairs are only possible between edges whose endpoints are
        # identified and whose labels agree; group them and pair each
        # subset of a group's edges of `a` with its first edges of `b`,
        # which are parallel.  A group at a pinned node must merge all
        # its edges of `b`.
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
            options = [dict(zip(subset, b_es))
                       for k in range(least, min(len(a_es), len(b_es)) + 1)
                       for subset in itertools.combinations(a_es, k)]
            if not options:
                return
            pools.append(options)
        u_size = len(a.nodes) + len(b.nodes) - len(node_pairs)
        if u_size > node_cap:
            raise GuardExceeded(
                "overlap of %d nodes exceeds the %d-node cap" % (u_size, node_cap))
        node_pairs = dict(node_pairs)
        for combo in itertools.product(*pools):
            edge_pairs: Dict[str, str] = {}
            for part in combo:
                edge_pairs.update(part)
            out.append((node_pairs, edge_pairs))
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
        tried = set()
        for bid in b_by_label[a.nodes[aid]]:
            if bid in used_b or twins[bid] in tried:
                continue
            tried.add(twins[bid])
            node_pairs[aid] = bid
            used_b.add(bid)
            choose(i + 1, node_pairs, used_b)
            del node_pairs[aid]
            used_b.discard(bid)

    choose(0, {}, set())
    return out


def _windows_fit(a: Graph, b: Graph, windows) -> bool:
    """Whether a correspondence of `a` with `b` can pair `least` nodes in
    each window: it pairs at most min(#l in a, #l in b) nodes of a label l."""
    have_a, have_b = a.label_counts(), b.label_counts()
    return all(least <= sum(min(n, have_b.get(l, 0))
                            for l, n in have_a.items() if l in labels)
               for labels, least in windows)


def _pair_windows(bounds, *graphs) -> list:
    """The maxima of (labels, lo, hi) count bounds as `overlaps`
    windows, for a graph with one node in S fewer per node pair in S
    than `graphs` hold together (base): it has at most hi nodes in S
    iff at least base - hi pairs are in S."""
    return [(labels, sum(lab in labels for g in graphs for lab in g.nodes.values()) - hi)
            for labels, _lo, hi in bounds if hi is not None]


# ---------------------------------------------------------------------------
# backward step
# ---------------------------------------------------------------------------


def rule_predecessor_basis(rule: Rule, target: Graph, klass: GraphClass,
                           limits: Limits = DEFAULT_LIMITS, lifts=None,
                           seen=None) -> List[Graph]:
    """Graphs G whose class members above them have a one-step
    successor above `target` in the class, among them the minimal
    ones: the inverse rule applied at each overlap of the rule's right
    side with a lift of the target (`GraphClass.lifts`) that meets the
    dangling condition, built from the pairs alone (`_apply`).

    The condition drops an overlap in which a target-only edge touches
    a node the rule creates: no host can supply an edge on a fresh
    node.  The candidate has |left ∩ S| + |target ∩ S| - (pairs in S)
    nodes with a label in S, so the class's count maxima on labels the
    quotient leaves alone prune the overlaps too, before any is built.
    A successor in the class lies above a lift, and a successor above
    a lift meets the minima, so the results need only be filtered by
    what subgraphs of members inherit.  Canonical, they generate the
    one-step predecessor ideal within the class; the caller's
    fixed-point loop supplies the reflexive part.  They come in
    enumeration order, each key once and none whose key is in `seen`,
    the keys already produced (updated); they may dominate one another:
    `minimize` makes them a basis.  `lifts` holds each lift of the target
    with its `twin_signatures`, computed unless given.
    """
    if lifts is None:
        lifts = _twinned_lifts(target, klass)
    seen = set() if seen is None else seen
    bounds = [b for b in klass.bounds if not b[0] & klass.quotient_labels]
    out = []
    inverse = rule.inverse()
    for lift, twins in lifts:
        windows = _pair_windows(bounds, rule.left, lift)
        for pairs in overlaps(rule.right, lift, limits, windows, rule.created_nodes, twins):
            cand = klass.admit(_apply(inverse, lift, *pairs), subgraph=True, seen=seen)
            if cand is not None:
                out.append(cand)
    return out


def _twinned_lifts(target: Graph, klass: GraphClass) -> list:
    return [(lift, twin_signatures(lift)) for lift in klass.lifts(target)]


# ---------------------------------------------------------------------------
# the subgraph order and the graph backend
# ---------------------------------------------------------------------------


class SubgraphOrder(Wqo):
    """Subgraph ordering: G below H iff G embeds injectively into H.

    On a class of bounded path length this is a well-quasi-order, and
    control/marker nodes compare equal exactly when their labels agree
    (each state carries exactly one of them, and embeddings preserve
    labels).  Keys are canonical forms, and finite graphs that embed in
    each other are isomorphic, so keys name order classes; a key starts
    with the node and edge counts, which a strict embedding raises, so
    key order extends the order.  A label-count test refuses most pairs
    without a search, and the antichain index masks by the same counts.
    `any_below` prepares the host once for all the elements it tests.
    """

    def leq(self, a: Graph, b: Graph) -> bool:
        return counts_fit(a, b) and exists_embedding(a, b)

    def key(self, a: Graph):
        return a.key()

    def any_below(self, elements, s: Graph) -> bool:
        return next(_embedded((t for t in elements if counts_fit(t, s)), s), None) is not None

    def antichain_index(self) -> "_LabelMasks":
        return _LabelMasks()


def _embedded(patterns, host: Graph) -> Iterator[Graph]:
    """The patterns that embed into `host`, prepared once for all (`host_plan`)."""
    plan = None
    for t in patterns:
        plan = plan or host_plan(host)
        if next(embeddings(t, host, nodes_only=True, plan=plan), None) is not None:
            yield t


class _LabelMasks(FeatureMasks):
    """Antichain index of `SubgraphOrder`: `FeatureMasks` over `label_counts`,
    confirming by embedding search the graphs that pass `counts_fit`."""

    __slots__ = ()

    def _counts(self, g: Graph):
        counts = g.label_counts()
        for f in counts.keys() - self.rows.keys():
            self.rows[f] = []
        return counts

    def add(self, g: Graph) -> None:
        self.hold(g, self._counts(g))

    def covers(self, s: Graph) -> bool:
        return next(_embedded(self.elements(self.at_most(s.label_counts())), s),
                    None) is not None

    def above(self, s: Graph) -> List[Graph]:
        return [t for t in self.elements(self.at_least(self._counts(s)))
                if exists_embedding(s, t)]


class GraphBackend:
    """State space of a graph transition system: a rule set acting on a
    class of graphs, with forward steps and one-step ideal steps in both
    directions.  It does not change once built, since the engine's
    saturation ledgers outlive each query: `rules` is a tuple."""

    def __init__(self, rules, klass: GraphClass, limits: Limits = DEFAULT_LIMITS):
        self.rules = tuple(rules)
        self.klass = klass
        self.limits = limits
        self.order = SubgraphOrder()

    def post_step(self, g: Graph) -> List[Graph]:
        return successors(g, self.rules, self.klass)

    def complete(self, pattern: Graph) -> List[Graph]:
        """The class's normal forms of `pattern` with a control node and
        a marker node added, each of every label when it has none."""
        klass = self.klass
        states = [None] if klass.control_of(pattern) is not None else (
            sorted(klass.control_labels) or [None])
        markers = [None] if klass.marker_of(pattern) is not None else (
            sorted(klass.marker_labels) or [None])
        variants = [with_control(pattern, q, mk) for q in states for mk in markers]
        return [h for h in (klass.admit(v, subgraph=True) for v in variants) if h is not None]

    def meet(self, p: Graph, q: Graph) -> List[Graph]:
        """Generators of up(p) & up(q): the rule that keeps p applied at
        each overlap of p with q."""
        keep = identity_rule("meet", "sys", p)
        return [_apply(keep, q, *pairs) for pairs in overlaps(p, q, self.limits)]

    def pre_basis(self, frontier) -> List[Graph]:
        """Generators of the one-step predecessors of the upward closures
        of the `frontier` graphs, over all rules, each key once and
        unordered; `minimize` makes them a basis."""
        seen: set = set()
        out = []
        for g in frontier:
            lifts = _twinned_lifts(g, self.klass)
            for rule in self.rules:
                out += rule_predecessor_basis(rule, g, self.klass, self.limits, lifts, seen)
        return out

    def post_basis(self, frontier) -> List[Graph]:
        """Generators of the one-step successors of the upward closures
        of the `frontier` graphs, each key once and unordered; `minimize`
        makes them a basis.

        A host above g matches a rule's left side in an overlap of the
        two, and applying the rule there gives a successor below every
        successor of such a host.  Results are filtered only by the
        class conditions that subgraphs of members inherit, so one
        below a `node_count` minimum stays: a larger host brings its
        successors into the class.  An overlap that meets the path
        bound passes it on to the results of rules that `keeps_paths`.
        """
        klass, seen, out = self.klass, set(), []
        keeps = [identity_rule(r.name, r.owner, r.left) for r in self.rules]
        for g in frontier:
            twins = twin_signatures(g)
            for rule, keep in zip(self.rules, keeps):
                windows = _pair_windows(klass.bounds, rule.left, g)
                for pairs in overlaps(rule.left, g, self.limits, windows, (), twins):
                    if not klass.contains(_apply(keep, g, *pairs), subgraph=True):
                        continue
                    h = klass.admit(_apply(rule, g, *pairs), subgraph=True,
                                    paths=not rule.keeps_paths, seen=seen)
                    if h is not None:
                        out.append(h)
        return out
