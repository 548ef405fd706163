"""Control automata and the composition of system and environment
rule sets into one synchronized transition system.

For the graph backend the automaton is compiled away: every selected
rule is enriched with a control node (the left side carries the edge's
source state, the right side its target state), and, when annotation is
requested, further tripled over the marker alphabet with the owner's
marker on the right.  Control and marker nodes are swapped out by
delete-plus-create, which keeps every rule morphism label-preserving
and makes the backward step handle them uniformly.

For the Petri backend the same synchronization is realized as a product
on markings instead of extra places; the step relations agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import ModelError
from .graphs import Graph, GraphClass
from .limits import DEFAULT_LIMITS, Limits
from .petri import MARKERS, PetriNet, ProductBackend
from .rewriting import GraphBackend, Rule

CONTROL_NODE = "ctl"
MARKER_NODE = "mrk"


def _fresh_id(nodes: dict, base: str) -> str:
    if base not in nodes:
        return base
    i = 0
    while "%s%d" % (base, i) in nodes:
        i += 1
    return "%s%d" % (base, i)


@dataclass(frozen=True)
class AutomatonEdge:
    src: str
    dst: str
    select: Tuple[str, ...]


@dataclass(frozen=True)
class ControlAutomaton:
    states: Tuple[str, ...]
    initial: str
    edges: Tuple[AutomatonEdge, ...]

    def selected_names(self):
        return sorted({name for e in self.edges for name in e.select})


def make_automaton(states, initial, edges, rule_names=None) -> ControlAutomaton:
    states = tuple(states)
    issues = []
    if len(set(states)) != len(states):
        issues.append(("/automaton/states", "duplicate state names"))
    if initial not in states:
        issues.append(("/automaton/initial", "initial state %r not declared" % initial))
    built = []
    for i, e in enumerate(edges):
        where = "/automaton/edges/%d" % i
        if e["from"] not in states:
            issues.append((where, "unknown source state %r" % e["from"]))
        if e["to"] not in states:
            issues.append((where, "unknown target state %r" % e["to"]))
        select = tuple(e.get("select", ()))
        if rule_names is not None:
            for name in select:
                if name not in rule_names:
                    issues.append((where, "selects unknown rule %r" % name))
        built.append(AutomatonEdge(e["from"], e["to"], select))
    if issues:
        raise ModelError(issues)
    return ControlAutomaton(states, initial, tuple(built))


def with_control(g: Graph, state: str, marker: Optional[str] = None) -> Graph:
    """Disjointly add the control node (and marker node) to a graph."""
    nodes = dict(g.nodes)
    nodes[_fresh_id(nodes, CONTROL_NODE)] = state
    if marker is not None:
        nodes[_fresh_id(nodes, MARKER_NODE)] = marker
    return Graph(nodes, g.edges)


def with_marker(g: Graph, marker: str) -> Graph:
    nodes = dict(g.nodes)
    nodes[_fresh_id(nodes, MARKER_NODE)] = marker
    return Graph(nodes, g.edges)


def enrich_rules(rules: List[Rule], automaton: ControlAutomaton) -> List[Rule]:
    """One rule per (edge, selected rule): the left side additionally
    requires the edge's source state, the right side produces its
    target state."""
    by_name = {r.name: r for r in rules}
    out = []
    for edge in automaton.edges:
        for name in edge.select:
            rule = by_name[name]
            left = with_control(rule.left, edge.src)
            right = with_control(rule.right, edge.dst)
            out.append(Rule("%s[%s>%s]" % (name, edge.src, edge.dst), rule.owner,
                            left, right, rule.node_map, rule.edge_map))
    return out


def mark_rules(enriched: List[Rule]) -> List[Rule]:
    """Triple every rule over the marker alphabet on the left; the right
    side always carries the owner's marker."""
    out = []
    for rule in enriched:
        for mk in MARKERS:
            left = with_marker(rule.left, mk)
            right = with_marker(rule.right, rule.owner)
            out.append(Rule("%s{%s}" % (rule.name, mk), rule.owner,
                            left, right, rule.node_map, rule.edge_map))
    return out


def joint_class(base: GraphClass, automaton: Optional[ControlAutomaton],
                annotate: bool) -> GraphClass:
    control = frozenset(automaton.states) if automaton else frozenset()
    markers = frozenset(MARKERS) if annotate else frozenset()
    return GraphClass(
        max_path=base.max_path,
        node_count=base.node_count,
        control_labels=control,
        marker_labels=markers,
        quotient_labels=base.quotient_labels,
    )


def compose_graph_backend(rules: List[Rule], base_class: GraphClass,
                          automaton: Optional[ControlAutomaton],
                          annotate: bool,
                          limits: Limits = DEFAULT_LIMITS) -> GraphBackend:
    klass = joint_class(base_class, automaton, annotate)
    if automaton is not None:
        rules = enrich_rules(rules, automaton)
    if annotate:
        rules = mark_rules(rules)
    return GraphBackend(rules, klass, limits)


def compose_petri_backend(net: PetriNet, automaton: Optional[ControlAutomaton],
                          annotate: bool) -> ProductBackend:
    if automaton is None:
        raise ModelError([("/automaton",
                           "a Petri model needs a control automaton for composition; "
                           "use the plain net backend otherwise")])
    return ProductBackend(net, automaton, annotate)
