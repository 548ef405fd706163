"""Shared fixtures and independent oracles.

The oracles here never call the code paths they are used to check:
reachability is explicit breadth-first search, backward steps are
verified by enumerating grids or small graph universes, recovery
bounds come from shortest-path distances on the explicit state graph,
and constraints are evaluated leaf by leaf on one state.
"""

import itertools
import json
import random
from collections import Counter, deque
from pathlib import Path

import pytest

from resilire import model
from resilire.constraints import And, Exists, NotExists, Or
from resilire.graphs import Graph, exists_embedding
from resilire.order import covers

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Acceptance tests register their PASS lines here; the summary hook
# prints them after the run, outside pytest's output capture.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def supply_built():
    return model.build(model.load(str(FIXTURES / "supplychain.json")))


@pytest.fixture(scope="session")
def triangle_doc():
    return model.load(str(FIXTURES / "adverse_vs_error.json"))


@pytest.fixture(scope="session")
def triangle_petri_doc():
    return model.load(str(FIXTURES / "adverse_vs_error_petri.json"))


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def pinned_reports():
    """(args, sha256) pairs from report_digests.json: the digest of the
    stdout of `resil args`, with args[1] a fixture file name."""
    doc = json.loads((Path(__file__).resolve().parent / "report_digests.json").read_text())
    return [(r["args"], r["sha256"]) for r in doc["reports"]]


# ---------------------------------------------------------------------------
# explicit-state oracles
# ---------------------------------------------------------------------------


def explore(backend, start, cap):
    """All states reachable from `start`, or None if more than `cap`."""
    key = backend.order.key
    seen = {key(start): start}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        # post_step is unordered; visiting in key order keeps the
        # returned order, and what callers pick from it, reproducible
        for nxt in sorted(backend.post_step(s), key=key):
            k = key(nxt)
            if k not in seen:
                if len(seen) >= cap:
                    return None
                seen[k] = nxt
                queue.append(nxt)
    return list(seen.values())


def recovery_oracle(backend, states, safe_basis, bad):
    """max over reachable bad states of (shortest distance to safety).

    Distances by reverse breadth-first search from the safe states over
    the explicit transition relation; None when some bad state cannot
    reach safety at all.
    """
    key = backend.order.key
    index = {key(s): s for s in states}
    reverse = {k: [] for k in index}
    for k, s in index.items():
        for nxt in backend.post_step(s):
            reverse[key(nxt)].append(k)
    dist = {}
    frontier = deque()
    for k, s in index.items():
        if covers(safe_basis, s):
            dist[k] = 0
            frontier.append(k)
    while frontier:
        k = frontier.popleft()
        for prev in reverse[k]:
            if prev not in dist:
                dist[prev] = dist[k] + 1
                frontier.append(prev)
    worst = 0
    for k, s in index.items():
        if bad.contains(s):
            if k not in dist:
                return None
            worst = max(worst, dist[k])
    return worst


# ---------------------------------------------------------------------------
# constraints read leaf by leaf
# ---------------------------------------------------------------------------


def _pattern_matches(pattern, state) -> bool:
    if isinstance(pattern, Graph):
        return exists_embedding(pattern, state)
    # a marking pattern: cover its tokens, and agree on the control
    # state / marker where it names one
    return ((pattern.state is None or pattern.state == state.state)
            and (pattern.marker is None or pattern.marker == state.marker)
            and all(x <= y for x, y in zip(pattern.tokens, state.tokens)))


def satisfies(state, c) -> bool:
    if isinstance(c, Exists):
        return _pattern_matches(c.pattern, state)
    if isinstance(c, NotExists):
        return not _pattern_matches(c.pattern, state)
    if isinstance(c, And):
        return all(satisfies(state, p) for p in c.parts)
    if isinstance(c, Or):
        return any(satisfies(state, p) for p in c.parts)
    raise TypeError("not a constraint: %r" % (c,))


# ---------------------------------------------------------------------------
# enumeration of small graph universes
# ---------------------------------------------------------------------------


def enumerate_class_graphs(node_labels, edge_labels, max_nodes, klass,
                           max_edges=6, max_mult=2):
    """Iso-unique class graphs with at most max_nodes nodes / max_edges
    edges, built level by level (one edge added per level) so the path
    bound prunes early."""
    out = {}
    level = {}
    for n in range(max_nodes + 1):
        for labs in itertools.combinations_with_replacement(sorted(node_labels), n):
            g = Graph({"n%d" % i: l for i, l in enumerate(labs)}, {})
            if klass.contains(g):
                level[g.key()] = g
                out[g.key()] = g
    for _ in range(max_edges):
        nxt = {}
        for g in level.values():
            mult = Counter((s, t, l) for (s, t, l) in g.edges.values())
            for src in g.nodes:
                for tgt in g.nodes:
                    if src == tgt:
                        continue
                    for lab in edge_labels:
                        if mult[(src, tgt, lab)] >= max_mult:
                            continue
                        edges = dict(g.edges)
                        edges["e%d" % len(edges)] = (src, tgt, lab)
                        h = Graph(dict(g.nodes), edges)
                        if not klass.contains(h):
                            continue
                        k = h.key()
                        if k not in out:
                            out[k] = h
                            nxt[k] = h
        if not nxt:
            break
        level = nxt
    return list(out.values())


def random_graph(rng, node_labels, edge_labels, max_nodes, max_edges, klass=None):
    """A random (class) multigraph; retries until the class accepts it."""
    for _ in range(50):
        n = rng.randint(0, max_nodes)
        nodes = {"n%d" % i: rng.choice(node_labels) for i in range(n)}
        edges = {}
        if n:
            for j in range(rng.randint(0, max_edges)):
                src, tgt = rng.choice(sorted(nodes)), rng.choice(sorted(nodes))
                if src == tgt:
                    continue
                edges["e%d" % j] = (src, tgt, rng.choice(edge_labels))
        g = Graph(nodes, edges)
        if klass is None or klass.contains(g):
            return g
    return Graph({}, {})


def rng_for(name: str) -> random.Random:
    return random.Random("resilire:" + name)
