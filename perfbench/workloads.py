"""What each workload runs, what it must answer, and what the traced
run reports per layer.

Expected answers are constants: a seed permutes the document but never
its meaning, so the verdicts, rounds and counts below hold for every
seed.  Every call is an operation with a classified outcome; an
operation that raises is recorded, never propagated.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from resilire import cli, engine, order

import inputs
from tracing import COUNTER, TIMER, Hook, Tracer

RAISED = "raised"


@dataclass(frozen=True)
class Outcome:
    """One operation: its classified result and what was wrong with it."""

    name: str
    kind: str        # found / unbounded / exhausted / raised / a value
    problems: Tuple[str, ...]
    report: str = ""  # canonical text of the answer, compared across calls

    @property
    def ok(self) -> bool:
        return not self.problems


# A call is (name, thunk, judge); judge(value) -> (kind, problems, report).
Call = Tuple[str, Callable[[], object], Callable[[object], tuple]]


def attempt(call: Call) -> Tuple[Optional[object], Optional[BaseException]]:
    """Run one operation, capturing instead of raising its exception."""
    _name, thunk, _judge = call
    try:
        return thunk(), None
    except Exception as exc:  # an operation that raises is a failed outcome
        traceback.print_exc(file=sys.stderr)
        return None, exc


def judge(call: Call, value, exc) -> Outcome:
    name, _thunk, judge_fn = call
    if exc is not None:
        return Outcome(name, RAISED, ("raised %s: %s" % (type(exc).__name__, exc),))
    try:
        kind, problems, report = judge_fn(value)
    except (ValueError, TypeError, AttributeError, KeyError) as err:
        return Outcome(name, "unreadable", ("unreadable answer: %r" % (err,),))
    return Outcome(name, kind, tuple(problems), report)


def expect(label: str, got, want) -> List[str]:
    return [] if got == want else ["%s: expected %r, got %r" % (label, want, got)]


# ---------------------------------------------------------------------------
# judges
# ---------------------------------------------------------------------------


def verdict_judge(built, k_min: int, basis_sizes: Tuple[int, ...]):
    """Judge a min_recovery verdict taken with keep_trace=True."""
    def judge_fn(v):
        problems = expect("verdict", v.kind, engine.FOUND)
        problems += expect("k_min", v.k_min, k_min)
        problems += expect("rounds", v.iterations, k_min)
        sizes = tuple(len(b) for b in v.trace or ())
        problems += expect("basis sizes per round", sizes, basis_sizes)
        report = json.dumps([built.basis_to_json(b) for b in v.trace or ()],
                            sort_keys=True)
        return v.kind, problems, report
    return judge_fn


def bound_judge(label: str, want):
    def judge_fn(k):
        kind = "infinity" if k == engine.INFINITY else str(k)
        return kind, expect(label, k, want), kind
    return judge_fn


def forward_judge(built, layer_sizes: Tuple[int, ...], antichain: int):
    def judge_fn(result):
        layers, basis = result
        problems = expect("states per layer", tuple(map(len, layers)), layer_sizes)
        problems += expect("antichain size", len(basis), antichain)
        report = json.dumps(built.basis_to_json(basis), sort_keys=True)
        return "%d states" % sum(map(len, layers)), problems, report
    return judge_fn


# ---------------------------------------------------------------------------
# the fixture gate: every run checks these before it times anything
# ---------------------------------------------------------------------------

# (fixture, published k_min) for the fixtures cheap enough to run every
# time; the path game's k_min = 13 is checked by every pathgame operation.
GATE_CHECKS = (("supplychain.json", 6), ("adverse_vs_error.json", 1),
               ("adverse_vs_error_petri.json", 1))
GATE_APPROX = ("supplychain.json", 20, 6, 6)  # fixture, depth, k_under, k_over


def _cli(argv) -> Tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_judge(k_min: int):
    def judge_fn(result):
        code, text = result
        report = json.loads(text)
        problems = expect("exit code", code, 0)
        problems += expect("verdict", report.get("verdict"), engine.FOUND)
        problems += expect("k_min", report.get("k_min"), k_min)
        return report.get("verdict", "?"), problems, text
    return judge_fn


def _approx_judge(k_under: int, k_over: int):
    def judge_fn(result):
        code, text = result
        report = json.loads(text)
        problems = expect("exit code", code, 0)
        problems += expect("k_under", report.get("k_under"), k_under)
        problems += expect("k_over", report.get("k_over"), k_over)
        return "%s..%s" % (report.get("k_under"), report.get("k_over")), problems, text
    return judge_fn


def fixture_gate(root: Path) -> List[Outcome]:
    """`resil check --trace` twice per cheap fixture (the two reports
    must be byte-identical) and `resil approx` on the supply chain."""
    outcomes = []
    for fixture, k_min in GATE_CHECKS:
        argv = ["check", str(root / "fixtures" / fixture), "--trace"]
        pair = []
        for _ in range(2):
            call = ("check " + fixture, lambda argv=argv: _cli(argv), _check_judge(k_min))
            pair.append(judge(call, *attempt(call)))
        if pair[0].ok and pair[1].ok and pair[0].report != pair[1].report:
            pair[1] = Outcome(pair[1].name, pair[1].kind,
                              ("check --trace report differs between identical calls",))
        outcomes += pair
    fixture, depth, k_under, k_over = GATE_APPROX
    argv = ["approx", str(root / "fixtures" / fixture), "--under", str(depth), "--over"]
    call = ("approx " + fixture, lambda: _cli(argv), _approx_judge(k_under, k_over))
    outcomes.append(judge(call, *attempt(call)))
    return outcomes


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

PATHGAME_BASES = (4, 8, 44, 62, 161, 171, 152, 151, 156, 135, 52, 42, 14, 13)
FORWARD_DEPTH = 17
FORWARD_LAYERS = (1, 1, 1, 3, 3, 9, 5, 19, 12, 46, 21, 82, 48, 169, 84, 305, 171, 586)
SUPPLY_K = 30
SUPPLY_BASES = (8, 20, 44, 110, 194, 255, 334, 436, 503, 561, 598, 634, 681, 728,
                690, 675, 680, 684, 645, 608, 577, 565, 535, 479, 452, 431, 419,
                401, 389, 380, 377)
SUPPLY_UNDER_DEPTH, SUPPLY_UNDER, SUPPLY_OVER = 12, 36, 39


def pathgame_calls(built) -> List[Call]:
    return [("check", lambda: engine.min_recovery(built.instance(), keep_trace=True),
             verdict_judge(built, 13, PATHGAME_BASES))]


def forward_calls(built) -> List[Call]:
    def post():
        layers = engine.forward_states(built.start, built.backend, FORWARD_DEPTH,
                                       built.doc.limits)
        return layers, order.minimize([s for layer in layers for s in layer],
                                      built.backend.order)
    return [("post --depth %d" % FORWARD_DEPTH, post,
             forward_judge(built, FORWARD_LAYERS, 3))]


def supply_calls(built) -> List[Call]:
    limits = built.doc.limits
    return [
        ("check", lambda: engine.min_recovery(built.instance(), keep_trace=True),
         verdict_judge(built, SUPPLY_K, SUPPLY_BASES)),
        ("approx --under %d" % SUPPLY_UNDER_DEPTH,
         lambda: engine.underapprox_bound(built.start, SUPPLY_UNDER_DEPTH, built.bad,
                                          built.safe, built.backend, limits),
         bound_judge("k_under", SUPPLY_UNDER)),
        ("approx --over",
         lambda: engine.overapprox_bound(built.start, built.bad, built.safe,
                                         built.backend, limits),
         bound_judge("k_over", SUPPLY_OVER)),
    ]


def supply_gate(doc: dict) -> List[Outcome]:
    """The explicit-state oracle must find the start exactly `SUPPLY_K`
    steps from safety, the distance `check` has to report."""
    call = ("oracle distance", lambda: inputs.oracle_distance(doc),
            lambda d: (str(d), expect("oracle distance", d, SUPPLY_K), str(d)))
    return [judge(call, *attempt(call))]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: Callable[[object], List[Call]]
    gate: Callable[[dict], List[Outcome]] = lambda doc: []


WORKLOADS = {w.name: w for w in (
    Workload("pathgame",
             "backward saturation on the paper's graph game: canonical forms, "
             "embeddings, overlaps and the class filter all busy",
             pathgame_calls),
    Workload("pathgame-forward",
             "forward exploration of the same game: matches and rule application "
             "instead of overlaps, dominated by canonical forms",
             forward_calls),
    Workload("supply-n3c2",
             "a scaled Petri product: no graph code, order.minimize and "
             "VectorOrder.leq dominate",
             supply_calls, supply_gate),
)}


# ---------------------------------------------------------------------------
# per-layer tracing
# ---------------------------------------------------------------------------

HOOKS = (
    Hook("resilire.model:load", "model.load"),
    Hook("resilire.model:build", "model.build"),
    Hook("resilire.engine:min_recovery", "engine.min_recovery",
         out=lambda v: v.iterations),
    Hook("resilire.engine:underapprox_bound", "engine.underapprox_bound"),
    Hook("resilire.engine:overapprox_bound", "engine.overapprox_bound"),
    Hook("resilire.engine:recovery_bound", "engine.recovery_bound"),
    Hook("resilire.engine:pre_star", "engine.pre_star"),
    Hook("resilire.engine:backward_step", "engine.backward_step"),
    Hook("resilire.engine:forward_states", "engine.forward_states",
         out=lambda layers: sum(map(len, layers))),
    Hook("resilire.order:minimize", "order.minimize", sized_in=True, out=len),
    Hook("resilire.order:basis_subset", "order.basis_subset"),
    Hook("resilire.graphs:_canonical_key", "graphs.canonical_key"),
    Hook("resilire.graphs:Graph.key", "graphs.key", kind=COUNTER),
    Hook("resilire.graphs:exists_embedding", "graphs.exists_embedding", kind=TIMER),
    Hook("resilire.graphs:GraphClass.contains", "graphs.class_contains"),
    Hook("resilire.rewriting:SubgraphOrder.leq", "rewriting.leq", kind=COUNTER,
         hit_unless="graphs.exists_embedding"),
    Hook("resilire.rewriting:overlaps", "rewriting.overlaps", out=len),
    Hook("resilire.rewriting:GraphBackend.pre_basis", "rewriting.pre_basis", out=len),
    Hook("resilire.rewriting:matches", "rewriting.matches", materialize=True),
    Hook("resilire.rewriting:successors", "rewriting.successors"),
    Hook("resilire.rewriting:apply_rule", "rewriting.apply_rule", kind=COUNTER),
    Hook("resilire.petri:PetriBackend.pre_basis", "petri.pre_basis"),
    Hook("resilire.petri:ProductBackend.pre_basis", "petri.pre_basis"),
    Hook("resilire.petri:PetriBackend.post_step", "petri.post_step"),
    Hook("resilire.petri:ProductBackend.post_step", "petri.post_step"),
    Hook("resilire.petri:VectorOrder.leq", "petri.leq", kind=COUNTER),
)


def layer_metrics(tracer: Tracer, built, untraced_s: float, traced_s: float) -> dict:
    """Per-layer figures of one traced operation, by metric name, with
    the wall time of the same operation untraced and its traced time.

    Layers the workload does not use read 0.  Cache sizes are read from
    the backend the operation ran on.
    """
    stats = tracer.stats

    def count(name, field="calls"):
        return getattr(stats[name], field) if name in stats else 0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "model.load.self_s": tracer.self_s("model.load"),
        "model.build.self_s": tracer.self_s("model.build"),
        "engine.rounds": count("engine.min_recovery", "items_out"),
        "engine.backward_step.self_s": tracer.self_s("engine.backward_step"),
        "engine.forward_states.self_s": tracer.self_s("engine.forward_states"),
        "engine.states_seen": count("engine.forward_states", "items_out"),
        "order.minimize.calls": count("order.minimize"),
        "order.minimize.self_s": tracer.self_s("order.minimize"),
        "order.minimize.in": count("order.minimize", "items_in"),
        "order.minimize.kept_ratio": ratio(count("order.minimize", "items_out"),
                                           count("order.minimize", "items_in")),
        "order.basis_subset.self_s": tracer.self_s("order.basis_subset"),
        "rewriting.leq.hit_ratio": ratio(count("rewriting.leq", "hits"),
                                         count("rewriting.leq")),
        "rewriting.leq_cache.size": len(getattr(built.backend.order, "_cache", ())),
        "rewriting.pre_cache.size": len(getattr(built.backend, "_pre_cache", ())),
        "rewriting.apply_rule.calls": count("rewriting.apply_rule"),
        "graphs.key.calls": count("graphs.key"),
        "petri.leq.calls": count("petri.leq"),
        "petri.leq.true_ratio": ratio(count("petri.leq", "true"), count("petri.leq")),
        "solve_s": untraced_s,
        "trace.overhead_ratio": ratio(traced_s, untraced_s),
    }
    for name in ("graphs.canonical_key", "graphs.exists_embedding",
                 "graphs.class_contains", "rewriting.overlaps", "rewriting.pre_basis",
                 "petri.pre_basis", "petri.post_step"):
        m[name + ".calls"] = count(name)
        m[name + ".self_s"] = tracer.self_s(name)
    for name in ("graphs.exists_embedding", "graphs.class_contains"):
        m[name + ".true_ratio"] = ratio(count(name, "true"), count(name))
    for name in ("rewriting.overlaps", "rewriting.pre_basis"):
        m[name + ".out"] = count(name, "items_out")
    for name in ("rewriting.matches", "rewriting.successors"):
        m[name + ".self_s"] = tracer.self_s(name)
    m["rewriting.leq.calls"] = count("rewriting.leq")
    return m
