"""Document loading, validation messages, reports, and the CLI."""

import json
import subprocess
import sys

import pytest

from resilire import model
from resilire.errors import ModelError

from conftest import fixture_path

FIXTURE_NAMES = ["supplychain.json", "pathgame.json", "adverse_vs_error.json",
                 "adverse_vs_error_petri.json"]


def run_cli(*args, env=None):
    import os
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


def test_cli_missing_model_file_exits_two(tmp_path):
    proc = run_cli("check", str(tmp_path / "absent.json"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_cli_overlap_guard_trip_is_exhausted(tmp_path):
    doc = json.loads(open(fixture_path("pathgame.json")).read())
    doc["limits"] = dict(doc.get("limits", {}), overlap_count=1)
    path = tmp_path / "guarded.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("check", str(path))
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["verdict"] == "exhausted"


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


def test_plain_net_without_automaton(tmp_path):
    doc = {
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
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("check", str(path))
    report = json.loads(proc.stdout)
    # the empty marking can never regain a token, so no bound exists
    assert report["verdict"] == "unbounded" and proc.returncode == 1
    proc = run_cli("approx", str(path), "--under", "3", "--over")
    report = json.loads(proc.stdout)
    assert report["k_under"] == 1 and report["k_over"] == 1


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
