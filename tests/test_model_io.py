"""Document loading, validation messages, reports, and the CLI."""

import copy
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from resilire import cli, model
from resilire.errors import ModelError
from resilire.petri import ProductBackend

from conftest import fixture_path, pinned_reports

FIXTURE_NAMES = ["supplychain.json", "pathgame.json", "adverse_vs_error.json",
                 "adverse_vs_error_petri.json"]
ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run([sys.executable, "-m", "resilire.cli", *args],
                          capture_output=True, text=True, env=full_env)
    return proc


def base_doc():
    return json.loads(open(fixture_path("adverse_vs_error_petri.json")).read())


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixtures_load_and_build(name):
    built = model.build(model.load(fixture_path(name)))
    assert built.safe


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_documents_serialize_stably(name):
    doc = model.load(fixture_path(name))
    text = model.dumps(doc)
    assert model.dumps(model.loads(text)) == text
    # overlap_nodes is written only when set: None is the natural bound
    assert set(json.loads(text)["limits"]) == set(model.LIMIT_FIELDS) - {"overlap_nodes"}
    capped = replace(doc, limits=replace(doc.limits, overlap_nodes=7))
    capped_text = model.dumps(capped)
    assert json.loads(capped_text)["limits"]["overlap_nodes"] == 7
    assert model.loads(capped_text).limits == capped.limits
    assert model.dumps(model.loads(capped_text)) == capped_text


def test_unknown_place_is_located():
    doc = base_doc()
    doc["petri"]["transitions"][0]["pre"] = {"nowhere": 1}
    with pytest.raises(ModelError, match="restock.*nowhere|nowhere"):
        model.from_dict(doc)


def test_non_injective_rule_is_rejected_by_name():
    doc = json.loads(open(fixture_path("adverse_vs_error.json")).read())
    doc["gts"]["rules"][0]["map"]["nodes"] = [["a", "a"], ["b", "a"], ["c", "c"]]
    with pytest.raises(ModelError) as err:
        model.from_dict(doc)
    assert any("injective" in msg and "close_cycle" in msg
               for _loc, msg in err.value.issues)
    assert any("/gts/rules/0" in loc for loc, _msg in err.value.issues)


def test_petri_transition_owner_is_checked():
    doc = base_doc()
    doc["petri"]["transitions"][1]["owner"] = "nobody"
    with pytest.raises(ModelError) as err:
        model.from_dict(doc)
    assert [loc for loc, _msg in err.value.issues] == ["/petri/transitions/1/owner"]


def test_unknown_selected_rule():
    doc = base_doc()
    doc["automaton"]["edges"][0]["select"] = ["ghost"]
    with pytest.raises(ModelError, match="ghost"):
        model.from_dict(doc)


def test_bad_mode_validation():
    doc = base_doc()
    doc["bad"] = {"mode": "adverse", "states": ["q7"]}
    with pytest.raises(ModelError, match="q7"):
        model.from_dict(doc)
    doc["bad"] = {"mode": "wat"}
    with pytest.raises(ModelError, match="wat"):
        model.from_dict(doc)
    # an adverse bad set that observes nothing is refused by the loader
    for bad in ({"mode": "adverse"},
                {"mode": "adverse", "states": [], "env_marker": False}):
        doc["bad"] = bad
        with pytest.raises(ModelError, match="'states' and/or 'env_marker'") as err:
            model.from_dict(doc)
        assert [loc for loc, _msg in err.value.issues] == ["/bad"]


def test_missing_reachability_basis_points_to_approx():
    doc = base_doc()
    doc.pop("b_post")
    built = model.build(model.from_dict(doc))
    with pytest.raises(ModelError, match="approx"):
        built.instance()


def test_mixed_polarity_safety_rejected():
    doc = base_doc()
    doc["safety"] = {"op": "and", "args": [
        {"op": "exists", "marking": {"stock": 1}},
        {"op": "not_exists", "marking": {"reserve": 5}},
    ]}
    with pytest.raises(ModelError, match="positive"):
        model.from_dict(doc)


def test_cli_check_found_exit_zero():
    proc = run_cli("check", fixture_path("supplychain.json"))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["verdict"] == "found" and report["k_min"] == 6


def test_cli_check_reports_are_byte_stable():
    a = run_cli("check", fixture_path("supplychain.json"), "--trace")
    b = run_cli("check", fixture_path("supplychain.json"), "--trace")
    assert a.stdout == b.stdout


# The path game's pinned `check --trace` takes 20 s; acceptance 2 checks it.
CHEAP_REPORTS = [(args, sha) for args, sha in pinned_reports()
                 if args[1] != "pathgame.json"]


@pytest.mark.parametrize("args, sha256", CHEAP_REPORTS,
                         ids=["_".join(a.lstrip("-") for a in args)
                              for args, _ in CHEAP_REPORTS])
def test_cli_reports_keep_their_pinned_bytes(args, sha256):
    proc = run_cli(args[0], fixture_path(args[1]), *args[2:])
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == sha256


def test_cli_check_explicit_flag():
    proc = run_cli("check", fixture_path("supplychain.json"), "--k", "5")
    report = json.loads(proc.stdout)
    assert report["explicit"] is False
    proc = run_cli("check", fixture_path("supplychain.json"), "--k", "6")
    assert json.loads(proc.stdout)["explicit"] is True


def test_cli_check_unbounded_exit_one(tmp_path):
    doc = base_doc()
    doc["bad"] = {"mode": "error"}
    path = tmp_path / "err.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("check", str(path))
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["verdict"] == "unbounded"


def test_cli_check_missing_basis_exit_two(tmp_path):
    doc = base_doc()
    doc.pop("b_post")
    path = tmp_path / "nobasis.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("check", str(path))
    assert proc.returncode == 2
    assert "approx" in proc.stderr


def test_cli_env_var_overrides_iterations():
    proc = run_cli("check", fixture_path("supplychain.json"),
                   env={"RESIL_MAX_ITERS": "3"})
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["verdict"] == "exhausted"


def test_cli_exhausted_report_names_the_guard():
    proc = run_cli("check", fixture_path("supplychain.json"),
                   env={"RESIL_MAX_ITERS": "1"})
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {
        "verdict": "exhausted", "iterations": 1,
        "reason": "no fixed point within 1 rounds"}
    found = json.loads(run_cli("check", fixture_path("supplychain.json")).stdout)
    assert found == {"verdict": "found", "iterations": 6, "k_min": 6}


def test_cli_env_var_not_a_number_exits_two():
    proc = run_cli("check", fixture_path("supplychain.json"),
                   env={"RESIL_MAX_ITERS": "abc"})
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: RESIL_MAX_ITERS ")


@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_env_var_not_positive_exits_two(value):
    proc = run_cli("check", fixture_path("supplychain.json"),
                   env={"RESIL_MAX_ITERS": value})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: RESIL_MAX_ITERS ")


@pytest.mark.parametrize("command, option, value", [
    ("approx", "--under", "-3"), ("post", "--depth", "-2"), ("check", "--k", "-1")])
def test_cli_negative_count_exits_two(command, option, value):
    proc = run_cli(command, fixture_path("supplychain.json"), option, value)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(
        "error: argument %s: must be a non-negative integer, not '%s'" % (option, value))


def test_cli_missing_model_file_exits_two(tmp_path):
    proc = run_cli("check", str(tmp_path / "absent.json"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_cli_uncaught_exception_exits_two(monkeypatch, capsys):
    """A fault inside a computation must not exit 1, the code of an
    `unbounded` answer."""
    def broken(self, m):
        raise RuntimeError("broken step")
    monkeypatch.setattr(ProductBackend, "pre_basis", broken)
    assert cli.main(["check", fixture_path("supplychain.json")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == "error: internal RuntimeError: broken step"


def test_cli_overlap_guard_trip_is_exhausted(tmp_path):
    doc = json.loads(open(fixture_path("pathgame.json")).read())
    doc["limits"] = dict(doc.get("limits", {}), overlap_count=1)
    path = tmp_path / "guarded.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("check", str(path))
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["verdict"] == "exhausted"
    assert report["reason"] == "more than 1 overlaps enumerated"


def test_cli_approx_report():
    proc = run_cli("approx", fixture_path("supplychain.json"),
                   "--under", "20", "--over")
    report = json.loads(proc.stdout)
    assert report["k_under"] == 6 and report["k_over"] >= 6
    assert "k_under <= k_min <= k_over" == report["guarantee"]


def test_cli_approx_over_on_graph_model():
    proc = run_cli("approx", fixture_path("adverse_vs_error.json"), "--over")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["k_over"] == 1


def test_cli_post_depth_zero_is_start():
    proc = run_cli("post", fixture_path("supplychain.json"), "--depth", "0")
    report = json.loads(proc.stdout)
    assert report["basis"] == [
        {"marking": {"store1": 1, "store2": 1, "warehouse": 1}, "state": "e"}]


def test_cli_prestar_report():
    proc = run_cli("prestar", fixture_path("adverse_vs_error_petri.json"))
    report = json.loads(proc.stdout)
    assert report["index"] >= 0 and report["basis"]


def test_cli_prestar_trace_matches_published_rounds():
    proc = run_cli("prestar", fixture_path("supplychain.json"), "--trace")
    report = json.loads(proc.stdout)
    assert report["index"] == 20
    places = ("product", "warehouse", "store1", "store2")
    rows = [sorted(tuple(s["marking"].get(p, 0) for p in places)
                   for s in step["bad_side"])
            for step in report["trace"][:7]]
    assert rows[1] == [(0, 1, 1, 1), (0, 2, 0, 1), (0, 2, 1, 0)]
    assert rows[3] == rows[4] == rows[5]
    assert rows[6] == [(0, 0, 0, 2), (0, 0, 1, 1), (0, 0, 2, 0),
                       (0, 1, 0, 1), (0, 1, 1, 0), (0, 3, 0, 0)]


def test_cli_compose_then_check_matches(tmp_path):
    out = tmp_path / "flat.json"
    proc = run_cli("compose", fixture_path("adverse_vs_error.json"),
                   "--out", str(out))
    assert proc.returncode == 0
    direct = run_cli("check", fixture_path("adverse_vs_error.json"))
    flat = run_cli("check", str(out))
    assert json.loads(direct.stdout) == json.loads(flat.stdout)


def test_cli_compose_rejects_petri():
    proc = run_cli("compose", fixture_path("supplychain.json"))
    assert proc.returncode == 2


def plain_net_doc():
    return {
        "format": "resilire/1",
        "kind": "petri",
        "petri": {
            "places": ["a", "b"],
            "transitions": [
                {"name": "move", "owner": "sys", "pre": {"b": 1}, "post": {"a": 1}}],
            "start": {"b": 2},
        },
        "safety": {"op": "exists", "marking": {"a": 1}},
        "bad": {"mode": "error"},
        "b_post": [{"marking": {}}],
    }


def test_plain_net_without_automaton(tmp_path):
    doc = plain_net_doc()
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("check", str(path))
    report = json.loads(proc.stdout)
    # the empty marking can never regain a token, so no bound exists
    assert report["verdict"] == "unbounded" and proc.returncode == 1
    proc = run_cli("approx", str(path), "--under", "3", "--over")
    report = json.loads(proc.stdout)
    assert report["k_under"] == 1 and report["k_over"] == 1


@pytest.mark.parametrize("base, section, extra", [
    (plain_net_doc, "safety", {"state": "p"}),
    (plain_net_doc, "safety", {"marker": "sys"}),
    (plain_net_doc, "b_post", {"state": "p"}),
    (base_doc, "safety", {"marker": "sys"}),
])
def test_cli_state_or_marker_the_model_lacks_exits_two(tmp_path, base, section, extra):
    # A plain net has no control state and an unannotated model no
    # marker; a pattern or state naming one is a model error, not a
    # state that nothing covers.
    doc = base()
    if section == "b_post":
        doc["b_post"][0].update(extra)
    else:
        doc["safety"].update(extra)
    doc["bad"] = {"mode": "error"}
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("check", str(path))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "state/marker presence" in proc.stderr


def graph_doc():
    return json.loads(open(fixture_path("adverse_vs_error.json")).read())


def graph_doc_without_automaton():
    doc = graph_doc()
    doc.pop("automaton")
    doc["safety"].pop("state")
    for state in doc["b_post"]:
        state.pop("state")
    return doc


@pytest.mark.parametrize("base, section, extra", [
    (graph_doc_without_automaton, "safety", {"state": "q0"}),
    (graph_doc_without_automaton, "b_post", {"state": "q0"}),
    (graph_doc_without_automaton, "safety", {"marker": "sys"}),
    (graph_doc, "b_post", {"marker": "sys"}),
])
def test_cli_graph_state_or_marker_the_model_lacks_exits_two(tmp_path, base,
                                                             section, extra):
    # In a graph model such a state or marker would be read as a node
    # with an ordinary label, which no reachable state carries.
    doc = base()
    target = doc["b_post"][0] if section == "b_post" else doc["safety"]
    target.update(extra)
    doc["bad"] = {"mode": "error"}
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("check", str(path))
    assert proc.returncode == 2 and proc.stdout == ""
    (key,) = extra
    pointer = "/b_post/0/" if section == "b_post" else "/safety/"
    assert pointer + key + ":" in proc.stderr


def test_quotient_labels_may_not_be_matched_isolated():
    doc = json.loads(open(fixture_path("pathgame.json")).read())
    doc["gts"]["rules"].append({
        "name": "touch_point", "owner": "sys",
        "left": {"nodes": [{"id": "p", "label": "pt"}], "edges": []},
        "right": {"nodes": [{"id": "p", "label": "pt"}], "edges": []},
        "map": {"nodes": [["p", "p"]], "edges": []},
    })
    doc["automaton"]["edges"][0]["select"].append("touch_point")
    with pytest.raises(ModelError, match="isolated.*erases|erases"):
        model.from_dict(doc)


def test_adverse_mode_needs_an_automaton(tmp_path):
    doc = {
        "format": "resilire/1",
        "kind": "petri",
        "petri": {"places": ["a"], "transitions": [], "start": {}},
        "safety": {"op": "exists", "marking": {"a": 1}},
        "bad": {"mode": "adverse", "states": ["q0"]},
    }
    with pytest.raises(ModelError, match="no control automaton"):
        model.from_dict(doc)


@pytest.mark.parametrize("name, key, labels", [
    ("adverse_vs_error.json", "control_labels", ["q0", "q1"]),
    ("adverse_vs_error.json", "marker_labels", ["sys"]),
    ("adverse_vs_error_petri.json", "control_labels", ["q0", "q1"]),
])
def test_cli_label_sets_outside_a_flattened_graph_document_exit_two(
        tmp_path, name, key, labels):
    # Label sets describe a flattened graph document; beside an automaton
    # or in a Petri model they used to be taken as one, or ignored.
    doc = json.loads(open(fixture_path(name)).read())
    doc[key] = labels
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("check", str(path))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "/" + key in proc.stderr


MUTANT_VALUES = [None, True, -1, 1, "x", [], {}, [1], {"a": 1}]


def field_paths(obj, prefix=()):
    """The path of every value below the document root."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


@pytest.mark.parametrize("name", ["supplychain.json", "adverse_vs_error.json",
                                  "adverse_vs_error_petri.json"])
def test_single_field_mutants_are_refused_or_answered(tmp_path, monkeypatch,
                                                      capsys, name):
    # Each field replaced by a value of another JSON type or range either
    # builds or is refused with located issues; a mutant that builds
    # gets an answer or a refusal from `check`, never a traceback.
    monkeypatch.setenv("RESIL_MAX_ITERS", "20")
    text = open(fixture_path(name)).read()
    path = tmp_path / "mutant.json"
    for field in field_paths(json.loads(text)):
        for value in MUTANT_VALUES:
            doc = json.loads(text)
            parent = doc
            for key in field[:-1]:
                parent = parent[key]
            parent[field[-1]] = copy.deepcopy(value)
            mutant = "%s with %s = %r" % (name, "/".join(map(str, field)), value)
            try:
                model.build(model.from_dict(doc))
            except ModelError as exc:
                assert all(loc.startswith("/") for loc, _msg in exc.issues), mutant
                continue
            except Exception as exc:
                pytest.fail("%s raised %r" % (mutant, exc))
            path.write_text(json.dumps(doc))
            try:
                assert cli.main(["check", str(path)]) in (0, 1, 2), mutant
            except Exception as exc:
                pytest.fail("check on %s raised %r" % (mutant, exc))
    capsys.readouterr()


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
