"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value here is either frozen from the published runs of
the two worked examples or computed by an independent oracle inside the
test (explicit search, grid enumeration, or forward re-application).
"""

import itertools
import json
import subprocess
import sys
import time
from collections import Counter

import pytest

from resilire import model
from resilire.constraints import BadSet, Exists, Or, VectorPattern, ideal_basis_of, satisfies
from resilire.engine import (FOUND, INFINITY, UNBOUNDED, ResilienceInstance,
                             backward_step, min_recovery, overapprox_bound,
                             pre_star, underapprox_bound)
from resilire.graphs import Graph, GraphClass, exists_embedding
from resilire.order import basis_subset, covers, minimize
from resilire.petri import Marking, ProductBackend, make_net
from resilire.rewriting import (SubgraphOrder, matches, apply_rule,
                                rule_predecessor_basis, successors)
from resilire.control import make_automaton

import conftest
from conftest import (enumerate_class_graphs, explore, fixture_path,
                      random_graph, recovery_oracle, rng_for)
from test_rewriting import random_rule


def announce(line):
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "resilire.cli", *args],
                          capture_output=True, text=True)


# -- 1: the supply chain reproduces the published run -------------------------

SUPPLY_ROUNDS = {
    1: [(0, 1, 1, 1), (0, 2, 0, 1), (0, 2, 1, 0)],
    2: [(0, 0, 1, 1), (0, 2, 0, 1), (0, 2, 1, 0), (0, 3, 0, 0)],
    3: [(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0), (0, 3, 0, 0)],
    4: [(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0), (0, 3, 0, 0)],
    5: [(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0), (0, 3, 0, 0)],
    6: [(0, 0, 0, 2), (0, 0, 1, 1), (0, 0, 2, 0),
        (0, 1, 0, 1), (0, 1, 1, 0), (0, 3, 0, 0)],
}


def test_acceptance_1_supply_chain_exact():
    t0 = time.time()
    proc = run_cli("check", fixture_path("supplychain.json"), "--trace")
    elapsed = time.time() - t0
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["k_min"] == 6
    for k, expected in SUPPLY_ROUNDS.items():
        row = report["trace"][k]["bad_side"]
        got = sorted(
            tuple(s["marking"].get(p, 0)
                  for p in ("product", "warehouse", "store1", "store2"))
            for s in row)
        assert all(s["state"] == "e" for s in row)
        assert got == expected, "round %d mismatch" % k
    assert elapsed < 10.0
    announce("ACCEPTANCE 1 PASS: supply chain k_min=6, rounds 1..6 exact "
             "(%.1fs)" % elapsed)


# -- 2: the path game ---------------------------------------------------------

def test_acceptance_2_path_game():
    t0 = time.time()
    built = model.build(model.load(fixture_path("pathgame.json")))
    verdict = min_recovery(built.instance(), keep_trace=True)
    assert verdict.kind == FOUND and verdict.k_min == 13
    partition = Counter(built.backend.klass.control_of(g)
                        for g in verdict.trace[12].elements)
    assert partition == {"s": 12, "e": 2}
    target = built.reachable.elements[0]
    assert not verdict.trace[12].covers(target)
    assert verdict.trace[13].covers(target)
    proc = run_cli("check", fixture_path("pathgame.json"))
    assert json.loads(proc.stdout)["k_min"] == 13
    elapsed = time.time() - t0
    assert elapsed < 1800.0
    announce("ACCEPTANCE 2 PASS: path game k_min=13, twelfth basis splits "
             "12@s + 2@e (%.0fs)" % elapsed)


# -- 3: adverse conditions versus error states --------------------------------

def test_acceptance_3_adverse_vs_error():
    doc = model.load(fixture_path("adverse_vs_error.json"))
    adverse = min_recovery(model.build(doc).instance())
    error = min_recovery(model.build(doc.with_bad({"mode": "error"})).instance())
    assert (adverse.kind, adverse.k_min) == (FOUND, 1)
    assert error.kind == UNBOUNDED

    pdoc = model.load(fixture_path("adverse_vs_error_petri.json"))
    pb = model.build(pdoc)
    states = explore(pb.backend, pb.start, 10_000)
    assert states is not None
    oracle_adverse = recovery_oracle(pb.backend, states, pb.safe, pb.bad)
    eb = model.build(pdoc.with_bad({"mode": "error"}))
    oracle_error = recovery_oracle(eb.backend, states, eb.safe, eb.bad)
    assert oracle_adverse == 1 and oracle_error is None
    va = min_recovery(pb.instance())
    ve = min_recovery(eb.instance())
    assert (va.kind, va.k_min) == (FOUND, 1)
    assert ve.kind == UNBOUNDED
    announce("ACCEPTANCE 3 PASS: adverse bound 1 < error unbounded on both "
             "the graph example and its net analog (oracle-checked)")


# -- 4 and 6: random joint nets against the explicit oracle -------------------

def random_joint_model(rng):
    """A small synchronized net: token movers, consumers, and joins,
    under a connected random automaton."""
    n_places = rng.randint(2, 4)
    places = ["p%d" % i for i in range(n_places)]
    specs = []
    for i in range(rng.randint(2, 4)):
        style = rng.random()
        if style < 0.6:
            a, b = rng.sample(places, 2)
            pre, post = {a: 1}, {b: 1}
        elif style < 0.8:
            pre, post = {rng.choice(places): 1}, {}
        else:
            a, b = rng.sample(places, 2)
            pre, post = {a: 1, b: 1}, {rng.choice(places): 1}
        specs.append({"name": "t%d" % i, "owner": rng.choice(["sys", "env"]),
                      "pre": pre, "post": post})
    net = make_net(places, specs)
    qs = ["q%d" % i for i in range(rng.randint(1, 3))]
    names = [s["name"] for s in specs]
    edges = []
    for a in qs:
        targets = {rng.choice(qs)}
        targets.update(b for b in qs if rng.random() < 0.5)
        for b in sorted(targets):
            sel = sorted({rng.choice(names)} |
                         {n for n in names if rng.random() < 0.5})
            edges.append({"from": a, "to": b, "select": sel})
    automaton = make_automaton(qs, qs[0], edges, set(names))
    backend = ProductBackend(net, automaton)
    tokens = [0] * n_places
    for _ in range(rng.randint(2, 4)):
        tokens[rng.randrange(n_places)] += 1
    return backend, Marking(tuple(tokens), qs[0]), qs


@pytest.fixture(scope="session")
def harvested_models():
    """At least 50 random joint nets with a finite reachable space under
    the 10^4 cap, each with a safety basis anchored on a deep reachable
    state (so the recovery bounds spread beyond the trivial cases)."""
    rng = rng_for("acceptance-models")
    keep = []
    attempts = 0
    while len(keep) < 60 and attempts < 600:
        attempts += 1
        backend, start, qs = random_joint_model(rng)
        states = explore(backend, start, 10_000)
        if states is None:
            continue
        tail = states[max(0, 3 * len(states) // 4):]
        safe = minimize([rng.choice(tail) for _ in range(rng.randint(1, 2))],
                        backend.order)
        if rng.random() < 0.6:
            chosen = frozenset(q for q in qs if rng.random() < 0.5) \
                or frozenset(qs[:1])
            bad = BadSet("adverse", lambda s, c=chosen: s.state in c,
                         "state in %s" % sorted(chosen))
        else:
            bad = BadSet("error", lambda s, b=safe: not covers(b, s),
                         "outside safety")
        keep.append((backend, start, safe, bad, states))
    assert len(keep) >= 50, "generator failed to produce enough finite models"
    return keep


def test_acceptance_4_oracle_equivalence(harvested_models):
    bounded = unbounded = 0
    deepest = 0
    for backend, start, safe, bad, states in harvested_models:
        oracle = recovery_oracle(backend, states, safe, bad)
        verdict = min_recovery(ResilienceInstance(
            backend=backend, reachable=backend.basis(states), bad=bad,
            safe=safe, max_iters=10_000))
        if oracle is None:
            assert verdict.kind == UNBOUNDED, "oracle says no bound exists"
            unbounded += 1
        else:
            assert verdict.kind == FOUND and verdict.k_min == oracle
            bounded += 1
            deepest = max(deepest, oracle)
    assert bounded and unbounded, "both outcomes must be exercised"
    assert deepest >= 2, "the sample must include non-trivial bounds"
    announce("ACCEPTANCE 4 PASS: %d random joint nets match the explicit "
             "oracle exactly (%d bounded up to k=%d, %d unbounded)"
             % (bounded + unbounded, bounded, deepest, unbounded))


# -- 5: backward steps are exact ----------------------------------------------

def test_acceptance_5a_marking_backward_step_exact():
    from resilire.petri import enabled, fire, leq_marking, min_enabling_cover
    rng = rng_for("acceptance-covers")
    checked = 0
    while checked < 200:
        dim = rng.randint(2, 4)
        places = ["p%d" % i for i in range(dim)]
        net = make_net(places, [
            {"name": "t%d" % i,
             "pre": {p: rng.choice([0, 0, 1, 2]) for p in places},
             "post": {p: rng.choice([0, 0, 1, 2]) for p in places}}
            for i in range(rng.randint(1, 3))])
        target = Marking(tuple(rng.randint(0, 3) for _ in range(dim)))
        for t in net.transitions:
            cover = min_enabling_cover(net, target, t)
            for pt in itertools.product(range(5), repeat=dim):
                m = Marking(pt)
                truth = enabled(net, m, t) and all(
                    x >= y for x, y in zip(fire(net, m, t).tokens, target.tokens))
                assert truth == leq_marking(cover, m), (net, target, t)
            checked += 1
    announce("ACCEPTANCE 5a PASS: %d marking/transition pairs match grid "
             "enumeration exactly" % checked)


def one_step_covers(rule, g, target, klass):
    """Forward oracle, kept canonicalization-free for speed: apply the
    rule at every match and test target containment directly (both the
    class test and embedding existence are isomorphism-invariant)."""
    from resilire.graphs import quotient_isolated
    for m in matches(rule, g):
        h = apply_rule(rule, g, m)
        if klass.quotient_labels:
            h = quotient_isolated(h, klass.quotient_labels)
        if klass.contains(h) and exists_embedding(target, h):
            return True
    return False


def _counting_filter(rule, target):
    """Cheap necessary condition for a graph to one-step-cover the target."""
    need_nodes = Counter(target.nodes.values())
    need_edges = Counter(l for (_s, _t, l) in target.edges.values())
    created_nodes = Counter(rule.right.nodes[i] for i in rule.created_nodes)
    created_edges = Counter(rule.right.edges[i][2] for i in rule.created_edges)
    left_nodes = Counter(rule.left.nodes.values())
    left_edges = Counter(l for (_s, _t, l) in rule.left.edges.values())

    def admit(g):
        have_nodes = Counter(g.nodes.values())
        have_edges = Counter(l for (_s, _t, l) in g.edges.values())
        for lab, n in need_nodes.items():
            if have_nodes[lab] + created_nodes[lab] < n:
                return False
        for lab, n in need_edges.items():
            if have_edges[lab] + created_edges[lab] < n:
                return False
        for lab, n in left_nodes.items():
            if have_nodes[lab] < n:
                return False
        for lab, n in left_edges.items():
            if have_edges[lab] < n:
                return False
        return True

    return admit


def test_acceptance_5b_graph_backward_step_sound_and_complete():
    rng = rng_for("acceptance-prestep")
    klass = GraphClass(max_path=3)
    order = SubgraphOrder()
    universe = enumerate_class_graphs(["a", "b"], ["x"], 5, klass, max_edges=6)
    cases = sound_checks = complete_hits = 0
    while cases < 50:
        rule = random_rule(rng)
        target = random_graph(rng, ["a", "b"], ["x"], 4, 4, klass)
        preds = rule_predecessor_basis(rule, target, klass, order=order)
        for g in preds:
            assert one_step_covers(rule, g, target, klass), \
                "unsound predecessor for %s" % rule.name
            sound_checks += 1
        basis = minimize(preds, order)
        admit = _counting_filter(rule, target)
        for g in universe:
            if not admit(g):
                continue
            if covers(basis, g):
                continue
            assert not one_step_covers(rule, g, target, klass), \
                "missed predecessor %r" % g
            complete_hits += 1
        cases += 1
    announce("ACCEPTANCE 5b PASS: 50 random rules sound (%d forward "
             "re-applications) and complete on the 5-node universe "
             "(%d candidate graphs examined)" % (sound_checks, complete_hits))


# -- 6: the approximation sandwich --------------------------------------------

def test_acceptance_6_approximation_sandwich(supply_built, harvested_models):
    bounds = [underapprox_bound(supply_built.start, d, supply_built.bad,
                                supply_built.safe, supply_built.backend)
              for d in range(21)]
    assert bounds == sorted(bounds)
    assert 6 in bounds and bounds[20] == 6
    reach_six = bounds.index(6)
    over = overapprox_bound(supply_built.start, supply_built.bad,
                            supply_built.safe, supply_built.backend)
    assert over >= 6

    ordered = 0
    for backend, start, safe, bad, states in harvested_models:
        verdict = min_recovery(ResilienceInstance(
            backend=backend, reachable=backend.basis(states), bad=bad,
            safe=safe, max_iters=10_000))
        k_min = verdict.k_min if verdict.kind == FOUND else INFINITY
        k_under = underapprox_bound(start, 4, bad, safe, backend)
        k_over = overapprox_bound(start, bad, safe, backend)
        assert k_under <= k_min <= k_over, (k_under, k_min, k_over)
        ordered += 1

    doc = model.load(fixture_path("adverse_vs_error.json"))
    graph_bounds = []
    for built in (model.build(doc), model.build(doc.with_bad({"mode": "error"}))):
        verdict = min_recovery(built.instance())
        k_min = verdict.k_min if verdict.kind == FOUND else INFINITY
        k_under = underapprox_bound(built.start, 6, built.bad, built.safe,
                                    built.backend)
        k_over = overapprox_bound(built.start, built.bad, built.safe, built.backend)
        assert k_under <= k_min <= k_over, (k_under, k_min, k_over)
        graph_bounds.append((k_under, k_min, k_over))
    assert graph_bounds == [(1, 1, 1), (INFINITY, INFINITY, INFINITY)]
    announce("ACCEPTANCE 6 PASS: supply chain under-bounds rise to 6 by "
             "depth %d, over-bound %s >= 6; ordering holds on %d random "
             "models and on both readings of the graph example (1 <= 1 <= 1, "
             "unbounded)" % (reach_six, over, ordered))


# -- 7: invariant suites -------------------------------------------------------

def test_acceptance_7_invariant_suites(supply_built):
    # antichain laws on a vector grid
    rng = rng_for("acceptance-laws")
    order = supply_built.backend.order
    states = list(supply_built.doc.automaton.states)
    universe = [Marking(t, q) for q in states
                for t in itertools.product(range(3), repeat=4)]
    for _ in range(40):
        sample = [rng.choice(universe) for _ in range(rng.randint(0, 6))]
        basis = minimize(sample, order)
        again = minimize(list(reversed(sample)), order)
        assert basis.elements == again.elements
        assert minimize(basis.elements, order).elements == basis.elements
        probe = rng.choice(universe)
        assert covers(basis, probe) == any(order.leq(a, probe) for a in sample)

    # strong compatibility of both shipped backends, sampled
    for _ in range(150):
        small = Marking(tuple(rng.randint(0, 2) for _ in range(4)),
                        rng.choice(states))
        big = Marking(tuple(x + rng.randint(0, 1) for x in small.tokens),
                      small.state)
        for nxt in supply_built.backend.post_step(small):
            assert any(o.state == nxt.state and
                       all(a <= b for a, b in zip(nxt.tokens, o.tokens))
                       for o in supply_built.backend.post_step(big))
    game = model.build(model.load(fixture_path("pathgame.json")))
    grng = rng_for("acceptance-gts-compat")
    from resilire.control import with_control
    for _ in range(25):
        base = random_graph(grng, ["L", "pt"], ["a"], 3, 3)
        small = game.backend.normalize(with_control(base, grng.choice(["e", "s"])))
        if not game.backend.klass.contains(small):
            continue
        nodes = dict(small.nodes)
        nodes["extra"] = "pt"
        edges = dict(small.edges)
        lnode = next((i for i, l in small.nodes.items() if l == "L"), None)
        if lnode:
            edges["extra_e"] = (lnode, "extra", "a")
        big = Graph(nodes, edges)
        if not game.backend.klass.contains(big):
            continue
        for nxt in game.backend.post_step(small):
            assert any(exists_embedding(nxt, o) for o in game.backend.post_step(big))

    # the stop condition really is a fixed point: ten more rounds are inert
    basis, _ = pre_star(supply_built.safe, supply_built.backend, 10_000)
    current = basis
    for _ in range(10):
        nxt = backward_step(current, supply_built.safe, supply_built.backend)
        assert basis_subset(nxt.elements, current)
        assert basis_subset(current.elements, nxt)
        current = nxt

    # constraint/basis agreement on an exhaustive 5-node universe
    from resilire.constraints import GraphDomain
    from resilire.graphs import graph_of, single_node
    klass = GraphClass(max_path=2)
    dom = GraphDomain(klass, SubgraphOrder())
    constraint = Or((
        Exists(graph_of({"u": "a", "v": "b"}, [("u", "v", "x")])),
        Exists(graph_of({"u": "a", "v": "a"}, [("u", "v", "x"), ("v", "u", "x")])),
    ))
    basis = ideal_basis_of(constraint, dom)
    univ5 = enumerate_class_graphs(["a", "b"], ["x"], 5, klass, max_edges=5)
    for g in univ5:
        assert covers(basis, g) == satisfies(g, constraint)
    announce("ACCEPTANCE 7 PASS: antichain laws, strong compatibility on "
             "both backends, stop-condition stability, and constraint/basis "
             "agreement on %d class graphs" % len(univ5))
