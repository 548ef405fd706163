"""Automaton validation, rule enrichment, marking, and composition."""

import pytest

from resilire import model
from resilire.control import enrich_rules, make_automaton, mark_rules, with_control
from resilire.engine import min_recovery
from resilire.errors import ModelError
from resilire.graphs import Graph, GraphClass, graph_of, single_node
from resilire.petri import ENVIRONMENT, MARKERS, SYSTEM
from resilire.rewriting import GraphBackend, Rule, successors

from conftest import fixture_path


def sample_rules():
    grow = Rule("grow", SYSTEM, single_node("P"),
                graph_of({"n0": "P", "tok": "t"}, [("n0", "tok", "x")]),
                {"n0": "n0"})
    shrink = Rule("shrink", ENVIRONMENT,
                  graph_of({"p": "P", "tok": "t"}, [("p", "tok", "x")]),
                  Graph({"p": "P"}, {}), {"p": "p"})
    return [grow, shrink]


def test_automaton_validation():
    with pytest.raises(ModelError) as err:
        make_automaton(["a"], "b", [{"from": "a", "to": "z", "select": ["nope"]}],
                       {"grow"})
    locations = [loc for loc, _ in err.value.issues]
    assert "/automaton/initial" in locations
    assert any(loc.startswith("/automaton/edges/0") for loc in locations)


def test_enrich_empty_automaton():
    autom = make_automaton(["q"], "q", [], {"grow"})
    assert enrich_rules(sample_rules(), autom) == []


def test_enrich_counting_law():
    autom = make_automaton(
        ["q0", "q1"], "q0",
        [{"from": "q0", "to": "q1", "select": ["grow", "shrink"]},
         {"from": "q1", "to": "q0", "select": ["shrink"]},
         {"from": "q1", "to": "q1", "select": []}],
        {"grow", "shrink"})
    enriched = enrich_rules(sample_rules(), autom)
    assert len(enriched) == sum(len(e.select) for e in autom.edges) == 3


def test_enriched_rule_swaps_control_node():
    autom = make_automaton(["q0", "q1"], "q0",
                           [{"from": "q0", "to": "q1", "select": ["grow"]}],
                           {"grow"})
    (rule,) = enrich_rules(sample_rules(), autom)
    assert "q0" in rule.left.nodes.values()
    assert "q1" in rule.right.nodes.values()
    host = with_control(single_node("P"), "q0")
    klass = GraphClass(control_labels=frozenset(["q0", "q1"]))
    (succ,) = successors(host, [rule], klass)
    assert "q1" in succ.nodes.values() and "q0" not in succ.nodes.values()


def test_mark_rules_triples():
    autom = make_automaton(["q0"], "q0",
                           [{"from": "q0", "to": "q0", "select": ["grow"]}],
                           {"grow"})
    marked = mark_rules(enrich_rules(sample_rules(), autom))
    assert len(marked) == len(MARKERS)
    for rule in marked:
        assert rule.right.nodes[
            next(i for i, l in rule.right.nodes.items() if l in MARKERS)] == SYSTEM
    lefts = sorted(next(l for l in r.left.nodes.values() if l in MARKERS)
                   for r in marked)
    assert lefts == sorted(MARKERS)
    # with_control adds a marker node alone, or a control and a marker node
    g = single_node("P")
    assert sorted(with_control(g, marker=SYSTEM).nodes.values()) == ["P", SYSTEM]
    assert sorted(with_control(g, "q0", SYSTEM).nodes.values()) == ["P", "q0", SYSTEM]


def test_marked_steps_track_owner():
    autom = make_automaton(
        ["q0"], "q0",
        [{"from": "q0", "to": "q0", "select": ["grow", "shrink"]}],
        {"grow", "shrink"})
    klass = GraphClass(max_path=2, control_labels=frozenset(autom.states),
                       marker_labels=frozenset(MARKERS))
    backend = GraphBackend(mark_rules(enrich_rules(sample_rules(), autom)), klass)
    start = with_control(single_node("P"), "q0", "top")
    start = backend.klass.admit(start)
    for succ in backend.post_step(start):
        marker = backend.klass.marker_of(succ)
        grew = sum(1 for l in succ.nodes.values() if l == "t")
        assert marker == (SYSTEM if grew else ENVIRONMENT) or grew in (0, 1)
        assert marker != "top"
    # after an environment step the marker says so
    bigger = backend.klass.admit(with_control(
        graph_of({"p": "P", "tok": "t"}, [("p", "tok", "x")]), "q0", "sys"))
    env_succs = [s for s in backend.post_step(bigger)
                 if sum(1 for l in s.nodes.values() if l == "t") == 0]
    assert env_succs and all(backend.klass.marker_of(s) == ENVIRONMENT
                             for s in env_succs)


def test_path_game_start_offers_only_point_creation():
    built = model.build(model.load(fixture_path("pathgame.json")))
    succs = built.backend.post_step(built.start)
    assert len(succs) == 1
    (succ,) = succs
    assert sorted(succ.nodes.values()) == ["L", "L", "pt", "s"]
    assert len(succ.edges) == 2


def test_flattened_document_equals_original():
    doc = model.load(fixture_path("adverse_vs_error.json"))
    flat = model.compose_document(doc)
    assert flat.automaton is None
    v1 = min_recovery(model.build(doc).instance())
    v2 = min_recovery(model.build(flat).instance())
    assert (v1.kind, v1.k_min) == (v2.kind, v2.k_min)


@pytest.mark.parametrize("name", ["pathgame.json", "adverse_vs_error.json"])
def test_building_a_graph_model_equals_building_its_flattening(name):
    doc = model.load(fixture_path(name))
    direct, flat = model.build(doc), model.build(model.compose_document(doc))
    assert direct.safe.elements == flat.safe.elements
    assert direct.reachable.elements == flat.reachable.elements
    assert direct.start.key() == flat.start.key()
    assert [r.name for r in direct.backend.rules] == [r.name for r in flat.backend.rules]
    assert direct.backend.klass == flat.backend.klass


def test_flattened_document_round_trips():
    doc = model.load(fixture_path("adverse_vs_error.json"))
    flat = model.compose_document(doc)
    text = model.dumps(flat)
    again = model.loads(text)
    assert model.dumps(again) == text
