"""Automaton validation, rule enrichment, marking, and composition."""

import json

import pytest

from resilire import cli, model
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


def annotated_triangle() -> dict:
    """adverse_vs_error.json annotated, with an environment-marker bad
    set and an overlap cap: every section compose copies is in use."""
    obj = json.loads(open(fixture_path("adverse_vs_error.json")).read())
    obj["annotate"] = True
    obj["bad"]["env_marker"] = True
    obj["limits"]["overlap_nodes"] = 9
    for item in obj["b_post"]:
        item["marker"] = SYSTEM
    return obj


def composable_documents():
    docs = {name: json.loads(open(fixture_path(name)).read())
            for name in ("pathgame.json", "adverse_vs_error.json")}
    docs["annotated"] = annotated_triangle()
    return docs


@pytest.mark.parametrize("name", sorted(composable_documents()))
def test_building_a_graph_model_equals_building_its_flattening(name):
    obj = composable_documents()[name]
    doc = model.from_dict(obj)
    direct = model.build(doc)
    # flattened in memory, and written out by compose and read back
    for flat in (model.build(model.compose_document(doc)),
                 model.build(model.loads(model.compose(json.dumps(obj))))):
        assert direct.safe.elements == flat.safe.elements
        assert direct.reachable.elements == flat.reachable.elements
        assert direct.start.key() == flat.start.key()
        assert [r.name for r in direct.backend.rules] == [r.name for r in flat.backend.rules]
        assert direct.backend.klass == flat.backend.klass
        assert direct.doc.limits == flat.doc.limits


# What flattening owns: the rest of a document is copied as written.
COMPOSE_OWNS = {"automaton", "annotate", "control_labels", "marker_labels"}


@pytest.mark.parametrize("name", sorted(composable_documents()))
def test_compose_rewrites_only_what_flattening_changes(name):
    obj = composable_documents()[name]
    text = model.compose(json.dumps(obj))
    out = json.loads(text)
    assert {k: v for k, v in out.items() if k not in COMPOSE_OWNS | {"gts"}} == \
        {k: v for k, v in obj.items() if k not in COMPOSE_OWNS | {"gts"}}
    assert {k: v for k, v in out["gts"].items() if k not in ("rules", "start")} == \
        {k: v for k, v in obj["gts"].items() if k not in ("rules", "start")}
    assert "automaton" not in out and out["annotate"] is False
    assert out["control_labels"] == obj["automaton"]["states"]
    assert out.get("marker_labels") == (list(MARKERS) if obj["annotate"] else None)
    assert model.compose(text) == text


def test_composed_annotated_document_gives_the_original_approx_report(tmp_path, capsys):
    original, flat = tmp_path / "original.json", tmp_path / "flat.json"
    original.write_text(json.dumps(annotated_triangle()))
    assert cli.main(["compose", str(original), "--out", str(flat)]) == 0
    reports = []
    for path in (original, flat):
        capsys.readouterr()
        assert cli.main(["approx", str(path), "--under", "6", "--over"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
