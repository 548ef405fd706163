"""Petri products as graph models, for a cross-backend differential test.

A net is a graph transformation system over token graphs, and the
componentwise order on markings is the subgraph order there (König &
Stückrath 2017).  Two encodings of a `ProductBackend` state (tokens, q):

- discrete: one isolated node per token, labelled by its place;
- star: one hub per place, labelled by the place and held at exactly
  one by the class, and one "tok" node per token, joined to its hub by
  an "in" edge.

Either way the automaton state is a control node, and the automaton is
compiled into the rules as `resil compose` does.  A transition becomes
a rule from its `pre` tokens to its `post` tokens that preserves
min(pre, post) tokens of each place (and, in the star encoding, every
hub it touches).  Each encoding is an order isomorphism onto its graph
states, so the graph backend must give the same verdicts, bounds and
per-round bases as the Petri backend.
"""

from collections import Counter

from resilire.control import enrich_rules, with_control
from resilire.graphs import Graph, GraphClass
from resilire.petri import Marking
from resilire.rewriting import GraphBackend, Rule

TOKEN, LINK = "tok", "in"


def _tokens(weights, places, star):
    """The token graph of `weights`: nodes, edges, and each place's
    token ids."""
    nodes, edges, ids = {}, {}, {}
    for p, n in zip(places, weights):
        if star:
            nodes[p] = p
        ids[p] = ["%s.%d" % (p, i) for i in range(n)]
        for tid in ids[p]:
            nodes[tid] = TOKEN if star else p
            if star:
                edges["e" + tid] = (p, tid, LINK)
    return nodes, edges, ids


def encode(m: Marking, places, star: bool) -> Graph:
    nodes, edges, _ids = _tokens(m.tokens, places, star)
    return with_control(Graph(nodes, edges), m.state)


def _rule(t, places, star: bool) -> Rule:
    touched = [i for i, p in enumerate(places) if t.pre[i] or t.post[i]]
    sides = []
    for weights in (t.pre, t.post):
        nodes, edges, ids = _tokens([weights[i] for i in touched],
                                    [places[i] for i in touched], star)
        sides.append((Graph(nodes, edges), ids))
    (left, pre_ids), (right, _post_ids) = sides
    kept = [tid for i in touched for tid in pre_ids[places[i]][:min(t.pre[i], t.post[i])]]
    node_map = {v: v for v in kept + ([places[i] for i in touched] if star else [])}
    edge_map = {"e" + v: "e" + v for v in kept} if star else {}
    return Rule(t.name, t.owner, left, right, node_map, edge_map)


def graph_backend(backend, star: bool) -> GraphBackend:
    """The graph model of a `ProductBackend` without annotation."""
    places, states = backend.net.places, frozenset(backend.automaton.states)
    rules = enrich_rules([_rule(t, places, star) for t in backend.net.transitions],
                         backend.automaton)
    klass = (GraphClass(max_path=2, node_count=tuple((p, (1, 1)) for p in places),
                        control_labels=states) if star
             else GraphClass(max_path=0, control_labels=states))
    return GraphBackend(rules, klass)


def decode(g: Graph, places, states, star: bool) -> Marking:
    """The marking a graph of the encoding stands for."""
    labels = Counter(g.nodes.values())
    tokens = Counter(g.nodes[s] for s, _t, _l in g.edges.values()) if star else labels
    state = next((lab for lab in labels if lab in states), None)
    return Marking(tuple(tokens[p] for p in places), state)
