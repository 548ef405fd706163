"""Control automata, and the flattening of a graph model's automaton
and annotation into its rule set.

For the graph backend the automaton is compiled away: every selected
rule is enriched with a control node (the left side carries the edge's
source state, the right side its target state), and, when annotation is
requested, further tripled over the marker alphabet with the owner's
marker on the right.  Control and marker nodes are swapped out by
delete-plus-create, which keeps every rule morphism label-preserving
and makes the backward step handle them uniformly.

For the Petri backend the same synchronization is realized as a product
on markings instead of extra places (`petri.ProductBackend`); the step
relations agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .errors import ModelError
from .graphs import with_control
from .petri import MARKERS
from .rewriting import Rule


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


def make_automaton(states, initial, edges, rule_names=None) -> ControlAutomaton:
    states = tuple(states)
    issues = []
    for i, q in enumerate(states):
        if q in states[:i]:
            issues.append(("/automaton/states/%d" % i, "duplicate state name %r" % q))
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
            left = with_control(rule.left, marker=mk)
            right = with_control(rule.right, marker=rule.owner)
            out.append(Rule("%s{%s}" % (rule.name, mk), rule.owner,
                            left, right, rule.node_map, rule.edge_map))
    return out
