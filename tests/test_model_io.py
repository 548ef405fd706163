"""Document loading, validation messages, reports, and the CLI."""

import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from resilire import cli, model
from resilire.errors import ModelError
from resilire.limits import Limits
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
def test_documents_load_their_limits(name):
    obj = json.loads(open(fixture_path(name)).read())
    # overlap_nodes is None, the natural bound, unless the document sets it
    assert model.from_dict(obj).limits == Limits(**obj["limits"])
    assert model.from_dict(obj).limits.overlap_nodes is None
    obj["limits"]["overlap_nodes"] = 7
    assert model.from_dict(obj).limits == Limits(**obj["limits"])
    obj["limits"] = {field: i + 2 for i, field in enumerate(model.LIMIT_FIELDS)}
    assert model.from_dict(obj).limits == Limits(**obj["limits"])


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
    with pytest.raises(ModelError, match="not 'not_exists'") as err:
        model.from_dict(doc)
    # refused at the leaf's own op
    assert [loc for loc, _msg in err.value.issues] == ["/safety/args/1/op"]
    # an `and` whose only argument is refused is not also called empty
    del doc["safety"]["args"][0]
    with pytest.raises(ModelError) as err:
        model.from_dict(doc)
    assert [loc for loc, _msg in err.value.issues] == ["/safety/args/0/op"]


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
                 if args[:2] != ["check", "pathgame.json"]]


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
    # an exhausted run answers neither way, and still echoes k
    proc = run_cli("check", fixture_path("supplychain.json"), "--k", "3",
                   env={"RESIL_MAX_ITERS": "1"})
    assert proc.returncode == 3
    assert json.loads(proc.stdout) == {
        "verdict": "exhausted", "iterations": 1,
        "reason": "no fixed point within 1 rounds", "k": 3, "explicit": None}


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
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["verdict"] == "exhausted"


def test_cli_exhausted_report_names_the_guard():
    proc = run_cli("check", fixture_path("supplychain.json"),
                   env={"RESIL_MAX_ITERS": "1"})
    assert proc.returncode == 3
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
    assert proc.returncode == 3
    report = json.loads(proc.stdout)
    assert report["verdict"] == "exhausted"
    assert report["reason"] == "more than 1 overlaps enumerated"


def test_cli_guard_trip_outside_check_exits_three():
    """A guard that stops a command without a verdict is inconclusive,
    not a refusal: exit 3, and the guard named on stderr."""
    proc = run_cli("prestar", fixture_path("supplychain.json"),
                   env={"RESIL_MAX_ITERS": "1"})
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "error: no fixed point within 1 rounds\n"


def test_cli_approx_report():
    proc = run_cli("approx", fixture_path("supplychain.json"),
                   "--under", "20", "--over")
    report = json.loads(proc.stdout)
    assert report["k_under"] == 6 and report["k_over"] >= 6
    assert "k_under <= k_min <= k_over" == report["guarantee"]


def test_cli_approx_with_nothing_to_do_is_refused_before_loading(tmp_path):
    proc = run_cli("approx", str(tmp_path / "absent.json"))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: nothing to do: pass --under DEPTH and/or --over\n"


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
    direct = run_cli("check", fixture_path("adverse_vs_error.json"), "--trace")
    flat = run_cli("check", str(out), "--trace")
    assert direct.returncode == flat.returncode == 0
    assert direct.stdout == flat.stdout


def test_cli_compose_rejects_petri():
    proc = run_cli("compose", fixture_path("supplychain.json"))
    assert proc.returncode == 2


def test_cli_compose_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"format": ')
    proc = run_cli("compose", str(path))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "/: not valid JSON" in proc.stderr


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
    (plain_net_doc, "bad", {"state": "p"}),
    (base_doc, "bad", {"marker": "sys"}),
])
def test_cli_state_or_marker_the_model_lacks_exits_two(tmp_path, base, section, extra):
    # A plain net has no control state and an unannotated model no
    # marker; a pattern or state naming one is a model error, not a
    # state that nothing covers, refused at the field's own pointer.
    doc = base()
    doc["bad"] = {"mode": "error"}
    if section == "b_post":
        doc["b_post"][0].update(extra)
    elif section == "bad":
        doc["bad"] = {"mode": "custom",
                      "constraint": dict(doc["safety"], op="not_exists", **extra)}
    else:
        doc["safety"].update(extra)
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("check", str(path))
    assert proc.returncode == 2 and proc.stdout == ""
    (key,) = extra
    pointer = {"b_post": "/b_post/0/", "bad": "/bad/constraint/"}.get(section, "/safety/")
    assert pointer + key + ":" in proc.stderr


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


def _append_copy(items):
    items.append(copy.deepcopy(items[-1]))


def _rename(items):
    items[1]["name"] = items[0]["name"]


@pytest.mark.parametrize("base, path, edit, pointer, message", [
    (base_doc, ("petri", "places"), _append_copy, "/petri/places/2",
     "duplicate place name 'reserve'"),
    (base_doc, ("petri", "transitions"), _rename, "/petri/transitions/1",
     "duplicate transition name 'restock'"),
    (base_doc, ("automaton", "states"), _append_copy, "/automaton/states/2",
     "duplicate state name 'q1'"),
    (graph_doc, ("gts", "rules", 0, "left", "nodes"), _append_copy,
     "/gts/rules/0/left/nodes/3", "duplicate node id 'c'"),
    (graph_doc, ("gts", "rules", 0, "left", "edges"), _append_copy,
     "/gts/rules/0/left/edges/2", "duplicate edge id 'e3'"),
    (graph_doc, ("gts", "rules"), _append_copy, "/gts/rules/4",
     "duplicate rule name 'break_cycle'"),
])
def test_each_duplicate_name_is_refused_at_its_own_pointer(base, path, edit, pointer,
                                                           message):
    doc = base()
    items = doc
    for step in path:
        items = items[step]
    edit(items)
    with pytest.raises(ModelError) as err:
        model.from_dict(doc)
    # later sections may fail for want of the refused one
    assert err.value.issues[0] == (pointer, message)


def test_rules_may_not_raise_a_count_past_its_max():
    """A rule that creates more nodes of a capped label than it deletes
    is refused at the rule; one that keeps the count is not, nor is a
    composed document's control-node swap."""
    doc = json.loads(open(fixture_path("pathgame.json")).read())
    doc["gts"]["class"]["node_count"]["pt"] = {"max": 3}
    with pytest.raises(ModelError) as err:
        model.from_dict(doc)
    assert err.value.issues == [("/gts/rules/0", "rule 'new_point' creates more 'pt' "
                                                 "nodes than it deletes, and 'pt' has a max")]
    del doc["gts"]["class"]["node_count"]["pt"]
    doc["gts"]["class"]["node_count"]["L"] = {"max": 2}
    assert model.from_dict(doc).rules
    flat = json.loads(model.compose(open(fixture_path("adverse_vs_error.json")).read()))
    flat["gts"]["class"]["node_count"] = {q: {"max": 1} for q in flat["control_labels"]}
    assert model.from_dict(flat).control_labels == tuple(flat["control_labels"])


def test_quotient_labels_may_not_be_matched_isolated():
    doc = json.loads(open(fixture_path("pathgame.json")).read())
    doc["gts"]["rules"].append({
        "name": "touch_point", "owner": "sys",
        "left": {"nodes": [{"id": "p", "label": "pt"}], "edges": []},
        "right": {"nodes": [{"id": "p", "label": "pt"}], "edges": []},
        "map": {"nodes": [["p", "p"]], "edges": []},
    })
    doc["automaton"]["edges"][0]["select"].append("touch_point")
    with pytest.raises(ModelError, match="isolated.*erases|erases") as err:
        model.from_dict(doc)
    assert [loc for loc, _msg in err.value.issues] == [
        "/gts/rules/%d/left" % (len(doc["gts"]["rules"]) - 1)]
    # Safety used to erase such a node in a pattern, while the custom bad
    # reading required it; both read a leaf as one ideal now, so a
    # pattern is refused at its leaf as a rule is
    for section in ("safety", "bad"):
        doc = json.loads(open(fixture_path("pathgame.json")).read())
        leaf = copy.deepcopy(doc["safety"]["args"][1])
        leaf["graph"]["nodes"].append({"id": "lone", "label": "pt"})
        if section == "bad":
            doc["bad"] = {"mode": "custom", "constraint": {"op": "and", "args": [
                {"op": "not_exists", "state": "e"}, dict(leaf, op="not_exists")]}}
        else:
            doc["safety"]["args"][1] = leaf
        with pytest.raises(ModelError) as err:
            model.from_dict(doc)
        pointer = "/bad/constraint" if section == "bad" else "/safety"
        assert err.value.issues == [(pointer + "/args/1",
                                     "the pattern has an isolated 'pt' node, "
                                     "which the quotient erases from every state")]
    # an empty node-count range is refused at its label, not blamed on
    # the start graph that no graph of the class could match
    doc = json.loads(open(fixture_path("pathgame.json")).read())
    doc["gts"]["class"]["node_count"]["L"] = {"min": 3, "max": 2}
    with pytest.raises(ModelError) as err:
        model.from_dict(doc)
    assert err.value.issues == [("/gts/class/node_count/L", "min 3 exceeds max 2")]


def quotient_minimum_doc(lo):
    """A one-rule model whose class puts a minimum of `lo` on the
    quotient label `a`; `post` reaches safety from the start in one step."""
    def graph(nodes, edges):
        return {"nodes": [{"id": n, "label": n} for n in nodes],
                "edges": [{"id": s + t, "src": s, "tgt": t, "label": "y"}
                          for s, t in edges]}
    start = graph("axb", ["ax"])
    return {
        "format": "resilire/1", "kind": "gts",
        "gts": {"class": {"max_path": 3, "quotient_isolated": ["a"],
                          "node_count": {"a": {"min": lo}}},
                "rules": [{"name": "grow", "left": graph("b", []),
                           "right": graph("bc", ["bc"]),
                           "map": {"nodes": [["b", "b"]], "edges": []}}],
                "start": start},
        "safety": {"op": "exists", "graph": graph("bc", ["bc"])},
        "bad": {"mode": "error"},
        "b_post": [{"graph": start}],
    }


def test_minimum_on_a_quotient_label_is_refused(tmp_path):
    # The backward step lifts a target to the class minima with isolated
    # nodes, and normalization erases an isolated `a`: `check` used to
    # say `unbounded` here although the start reaches safety in one step.
    with pytest.raises(ModelError) as err:
        model.from_dict(quotient_minimum_doc(1))
    assert err.value.issues == [("/gts/class/node_count/a",
                                 "a quotient_isolated label may not have a min")]
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(quotient_minimum_doc(0)))
    proc = run_cli("check", str(path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"verdict": "found", "iterations": 1, "k_min": 1}


def custom_copy(name):
    """The fixture with its adverse bad set written as a custom one:
    states in no unobserved control state."""
    doc = json.loads(open(fixture_path(name)).read())
    observed = doc["bad"]["states"]
    doc["bad"] = {"mode": "custom", "constraint": {"op": "and", "args": [
        {"op": "not_exists", "state": q} for q in doc["automaton"]["states"]
        if q not in observed]}}
    return doc


ADVERSE_FIXTURES = ["supplychain.json", "adverse_vs_error.json",
                    "adverse_vs_error_petri.json", "pathgame.json", "supply_n3c3.json"]


@pytest.mark.parametrize("name", ADVERSE_FIXTURES)
def test_custom_copy_of_an_adverse_fixture_keeps_its_report(tmp_path, name):
    path = tmp_path / name
    path.write_text(json.dumps(custom_copy(name)))
    proc = run_cli("check", str(path), "--trace")
    assert proc.returncode == 0
    pinned = {tuple(args): sha for args, sha in pinned_reports()}
    assert (hashlib.sha256(proc.stdout.encode()).hexdigest()
            == pinned[("check", name, "--trace")])


def negated(c):
    """The written constraint `c` negated, as it would be written."""
    flip = {"exists": "not_exists", "not_exists": "exists", "and": "or", "or": "and"}
    out = dict(c, op=flip[c["op"]])
    if "args" in c:
        out["args"] = [negated(a) for a in c["args"]]
    return out


def run_with_bad(tmp_path, doc, bad, command, *args):
    """`resil COMMAND` on `doc` with the bad set `bad`, then `args`."""
    path = tmp_path / ("%s.json" % bad["mode"])
    path.write_text(json.dumps(dict(doc, bad=bad)))
    return run_cli(command, str(path), *args)


@pytest.mark.parametrize("name", ADVERSE_FIXTURES)
def test_error_mode_reports_as_the_written_negation_of_safety(tmp_path, name):
    doc = json.loads(open(fixture_path(name)).read())
    error, custom = (run_with_bad(tmp_path, doc, bad, "check", "--trace")
                     for bad in ({"mode": "error"},
                                 {"mode": "custom", "constraint": negated(doc["safety"])}))
    assert error.returncode in (0, 1)
    assert (error.returncode, error.stdout) == (custom.returncode, custom.stdout)


@pytest.mark.parametrize("name", ["adverse_vs_error.json", "adverse_vs_error_petri.json"])
def test_env_marker_reports_as_its_written_custom_form(tmp_path, name):
    doc = json.loads(open(fixture_path(name)).read())
    doc["annotate"] = True
    doc.pop("b_post")
    others = {"op": "and", "args": [{"op": "not_exists", "marker": m}
                                    for m in ("top", "sys")]}
    adverse, custom = (run_with_bad(tmp_path, doc, bad, "approx", "--under", "6", "--over")
                       for bad in ({"mode": "adverse", "env_marker": True},
                                   {"mode": "custom", "constraint": others}))
    assert adverse.returncode == 0
    assert (adverse.returncode, adverse.stdout) == (custom.returncode, custom.stdout)


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
                code = cli.main(["check", str(path)])
            except Exception as exc:
                pytest.fail("check on %s raised %r" % (mutant, exc))
            # exit 3 only with the report of an `exhausted` verdict
            out = capsys.readouterr().out
            assert code in (0, 1, 2) or (
                code == 3 and json.loads(out)["verdict"] == "exhausted"), mutant
    capsys.readouterr()


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
