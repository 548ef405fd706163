"""Tests of the benchmark itself: inputs, oracle, gates and tracing.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from resilire import engine, model, order  # noqa: E402
from resilire.errors import GuardExceeded  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from reference import REFERENCE_CHECKSUM, Sampler, reference_work  # noqa: E402
from tracing import COUNTER, SPAN, SPAN_COLUMNS, TIMER, Hook, Tracer  # noqa: E402


def fixture(name):
    with open(ROOT / "fixtures" / name, encoding="utf-8") as fh:
        return json.load(fh)


# -- inputs -----------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_documents_are_deterministic_per_seed(workload):
    a = inputs.document(workload, ROOT, 5)
    assert a == inputs.document(workload, ROOT, 5)
    assert inputs.dumps(a) != inputs.dumps(inputs.document(workload, ROOT, 6))


@pytest.mark.parametrize("name,k_min", [("supplychain.json", 6),
                                        ("adverse_vs_error.json", 1),
                                        ("adverse_vs_error_petri.json", 1)])
def test_verdicts_do_not_depend_on_the_seed(name, k_min):
    for seed in range(4):
        built = model.build(model.from_dict(inputs.permuted(fixture(name), seed)))
        verdict = engine.min_recovery(built.instance())
        assert (verdict.kind, verdict.k_min) == (engine.FOUND, k_min)


def test_forward_layers_do_not_depend_on_the_seed():
    depth = 7
    for seed in range(3):
        built = model.build(model.from_dict(inputs.permuted(fixture("pathgame.json"), seed)))
        layers = engine.forward_states(built.start, built.backend, depth)
        assert tuple(map(len, layers)) == workloads.FORWARD_LAYERS[:depth + 1]


def test_oracle_agrees_with_check_on_a_small_family_member():
    for seed in range(3):
        doc = inputs.permuted(inputs.supply_document(2, 2), seed)
        assert inputs.oracle_distance(doc) == 17
        verdict = engine.min_recovery(model.build(model.from_dict(doc)).instance())
        assert (verdict.kind, verdict.k_min) == (engine.FOUND, 17)


@pytest.mark.parametrize("n,c,distance", [(2, 6, 141), (3, 3, 74), (3, 2, 30)])
def test_oracle_distances_across_the_family(n, c, distance):
    assert inputs.oracle_distance(inputs.supply_document(n, c)) == distance


# -- outcomes and gates -----------------------------------------------------


def test_a_raising_operation_is_a_failed_outcome():
    def guard():
        raise GuardExceeded("overlap count above 3")
    call = ("check", guard, lambda v: ("found", [], ""))
    outcome = workloads.judge(call, *workloads.attempt(call))
    assert outcome.kind == workloads.RAISED and not outcome.ok
    assert "overlap count above 3" in outcome.problems[0]


def test_a_wrong_or_exhausted_verdict_fails():
    built = model.build(model.load(str(ROOT / "fixtures" / "supplychain.json")))
    verdict = engine.min_recovery(built.instance(), keep_trace=True)
    sizes = tuple(len(b) for b in verdict.trace)
    assert workloads.verdict_judge(built, 6, sizes)(verdict)[1] == []
    assert workloads.verdict_judge(built, 5, sizes)(verdict)[1]
    exhausted = engine.Verdict(engine.EXHAUSTED, None, 3, verdict.trace[:4])
    assert workloads.verdict_judge(built, 6, sizes)(exhausted)[1]


def test_the_fixture_gate_passes():
    outcomes = workloads.fixture_gate(ROOT)
    assert len(outcomes) == 7 and all(o.ok for o in outcomes), outcomes


def test_the_run_refuses_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pathgame", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -- reference bursts -------------------------------------------------------


def test_reference_work_computes_its_checksum():
    assert reference_work() == REFERENCE_CHECKSUM


def test_sampler_bursts_are_taken_out_of_the_work():
    before = signal.getsignal(signal.SIGALRM)
    sampler = Sampler(interval=0.05)
    with sampler:
        started = time.perf_counter()
        while time.perf_counter() - started < 0.5:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.bursts) >= 3 and sampler.wrong == 0
    assert sum(sampler.bursts) <= sampler.paused < 0.5
    assert sampler.mean() == pytest.approx(sum(sampler.bursts) / len(sampler.bursts))


# -- tracing ----------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 7
        return True

    def cmp_(a, b):
        return a <= b

    traced_leaf = tracer.wrap(leaf, Hook("x:leaf", "leaf", kind=TIMER))
    traced_cmp = tracer.wrap(cmp_, Hook("x:cmp", "cmp", kind=COUNTER))

    def inner():
        clock.now += 5
        traced_leaf()
        traced_cmp(1, 2)
        traced_cmp(3, 2)
        return [1, 2]

    traced_inner = tracer.wrap(inner, Hook("x:inner", "inner", kind=SPAN, out=len))

    def outer():
        clock.now += 2
        traced_inner()
        traced_inner()
        clock.now += 1
        return None

    tracer.wrap(outer, Hook("x:outer", "outer"))()
    s = tracer.stats
    assert (s["outer"].calls, s["outer"].total_ns, s["outer"].self_ns) == (1, 27, 3)
    assert (s["inner"].calls, s["inner"].total_ns, s["inner"].self_ns) == (2, 24, 10)
    assert (s["leaf"].calls, s["leaf"].self_ns, s["leaf"].true) == (2, 14, 2)
    assert (s["cmp"].calls, s["cmp"].true, s["cmp"].total_ns) == (4, 2, 0)
    assert s["inner"].items_out == 4
    rows = [tuple(tracer.spans[i:i + len(SPAN_COLUMNS)])
            for i in range(0, len(tracer.spans), len(SPAN_COLUMNS))]
    # Only spans are recorded, children first; the timer leaves no row.
    assert [tracer.names[r[2]] for r in rows] == ["inner", "inner", "outer"]
    assert rows[0][1] == rows[1][1] == rows[2][0] and rows[2][1] == -1
    assert rows[2][3:] == (0, 27)


def test_counter_hits_are_calls_that_reached_no_search():
    tracer = Tracer(FakeClock())
    search = tracer.wrap(lambda: True, Hook("x:search", "search", kind=TIMER))
    cache = {}

    def lookup(key):
        if key not in cache:
            cache[key] = search()
        return cache[key]

    traced = tracer.wrap(lookup, Hook("x:lookup", "lookup", kind=COUNTER,
                                      hit_unless="search"))
    for key in (1, 2, 1, 1, 3):
        traced(key)
    assert (tracer.stats["lookup"].calls, tracer.stats["lookup"].hits) == (5, 2)


def test_installed_hooks_are_removed_afterwards():
    tracer = Tracer()
    before = (order.minimize, engine.minimize, engine.backward_step)
    with tracer.installed(workloads.HOOKS):
        assert engine.minimize is not before[1]
        built = model.build(model.load(str(ROOT / "fixtures" / "supplychain.json")))
        engine.min_recovery(built.instance())
    assert (order.minimize, engine.minimize, engine.backward_step) == before
    assert tracer.stats["engine.min_recovery"].items_out == 6
    assert tracer.stats["petri.leq"].calls > 0


def test_benchmark_file_names_every_reported_metric():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
    tracer = Tracer()
    built = model.build(model.load(str(ROOT / "fixtures" / "supplychain.json")))
    layer = workloads.layer_metrics(tracer, built, 1.0, 1.0)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == {name: run.unit_of(name) for name in layer}
    for m in bench["end_to_end"]:
        assert m["unit"] == run.unit_of(m["name"])
