"""Benchmark inputs: seeded permutations of the fixtures, the scaled
supply-chain family, and an explicit-state oracle for that family.

Every document is a plain model dict in the `resilire/1` format.  A
seed only reorders and renames: it never changes the model's meaning,
so every expected answer is a constant independent of the seed.
"""

from __future__ import annotations

import copy
import json
import random
from collections import deque
from pathlib import Path

# Workloads whose document is generated: generation counts as set-up.
GENERATED = frozenset({"supply-n3c2"})


def document(workload: str, root: Path, seed: int) -> dict:
    """The model document a workload runs on, permuted by `seed`."""
    if workload in ("pathgame", "pathgame-forward"):
        with open(root / "fixtures" / "pathgame.json", encoding="utf-8") as fh:
            base = json.load(fh)
    elif workload == "supply-n3c2":
        base = supply_document(3, 2)
    else:
        raise KeyError("unknown workload %r" % workload)
    return permuted(base, seed)


def permuted(doc: dict, seed: int) -> dict:
    """Same model, shuffled presentation.

    Node and edge ids are renamed and reordered in every graph; rules,
    places, transitions, automaton states, automaton edges and their
    selections are reordered.  Names that other sections refer to (rule
    and transition names, place names, labels) are kept.
    """
    rng = random.Random(seed)
    doc = copy.deepcopy(doc)
    if "gts" in doc:
        gts = doc["gts"]
        gts["rules"] = [_permute_rule(r, rng) for r in gts["rules"]]
        rng.shuffle(gts["rules"])
        if "start" in gts:
            gts["start"] = _rename_graph(gts["start"], _renaming(gts["start"], rng), rng)
        _permute_constraint(doc.get("safety"), rng)
        for s in doc.get("b_post") or ():
            if "graph" in s:
                s["graph"] = _rename_graph(s["graph"], _renaming(s["graph"], rng), rng)
    if "petri" in doc:
        rng.shuffle(doc["petri"]["places"])
        rng.shuffle(doc["petri"]["transitions"])
    if doc.get("automaton"):
        aut = doc["automaton"]
        rng.shuffle(aut["states"])
        rng.shuffle(aut["edges"])
        for edge in aut["edges"]:
            rng.shuffle(edge["select"])
    if doc.get("b_post"):
        rng.shuffle(doc["b_post"])
    return doc


def _renaming(graph: dict, rng: random.Random) -> dict:
    """A random bijection of the graph's node and edge ids to fresh ids."""
    ids = [n["id"] for n in graph.get("nodes", ())] + \
          [e["id"] for e in graph.get("edges", ())]
    fresh = ["x%d" % i for i in range(len(ids))]
    rng.shuffle(fresh)
    return dict(zip(ids, fresh))


def _rename_graph(graph: dict, ren: dict, rng: random.Random) -> dict:
    nodes = [dict(n, id=ren[n["id"]]) for n in graph.get("nodes", ())]
    edges = [dict(e, id=ren[e["id"]], src=ren[e["src"]], tgt=ren[e["tgt"]])
             for e in graph.get("edges", ())]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return {"nodes": nodes, "edges": edges}


def _permute_rule(rule: dict, rng: random.Random) -> dict:
    # One renaming per side: the morphism pairs are renamed with them.
    left_ren = _renaming(rule["left"], rng)
    right_ren = _renaming(rule["right"], rng)
    out = dict(rule)
    out["left"] = _rename_graph(rule["left"], left_ren, rng)
    out["right"] = _rename_graph(rule["right"], right_ren, rng)
    out["map"] = {
        part: [[left_ren[a], right_ren[b]] for a, b in rule["map"].get(part, ())]
        for part in ("nodes", "edges")
    }
    for part in out["map"].values():
        rng.shuffle(part)
    return out


def _permute_constraint(c, rng: random.Random) -> None:
    if not isinstance(c, dict):
        return
    if "graph" in c:
        c["graph"] = _rename_graph(c["graph"], _renaming(c["graph"], rng), rng)
    for arg in c.get("args", ()):
        _permute_constraint(arg, rng)
    if "args" in c:
        rng.shuffle(c["args"])


# ---------------------------------------------------------------------------
# the supply-chain family
# ---------------------------------------------------------------------------


def supply_document(n: int, c: int) -> dict:
    """The supply-chain fixture widened to `n` stores.

    Safety asks for at least `c` items on the warehouse and on every
    store, in any control state; bad states are those where the
    environment has just moved (control state 'e').  b_post is the start
    marking alone, so `check` answers how far the start is from safety.
    """
    stores = ["store%d" % i for i in range(1, n + 1)]
    ships = ["ship%d" % i for i in range(1, n + 1)]
    buys = ["buy%d" % i for i in range(1, n + 1)]
    transitions = [
        {"name": "produce", "owner": "sys", "pre": {}, "post": {"product": 1}},
        {"name": "transport", "owner": "sys", "pre": {"product": 1},
         "post": {"warehouse": 1}},
    ]
    transitions += [{"name": ship, "owner": "sys", "pre": {"warehouse": 1},
                     "post": {store: 1}} for ship, store in zip(ships, stores)]
    transitions.append({"name": "accident", "owner": "env",
                        "pre": {"warehouse": 1}, "post": {}})
    transitions += [{"name": buy, "owner": "env", "pre": {store: 1}, "post": {}}
                    for buy, store in zip(buys, stores)]
    start = dict({"warehouse": 1}, **{s: 1 for s in stores})
    return {
        "format": "resilire/1",
        "kind": "petri",
        "petri": {
            "places": ["product", "warehouse"] + stores,
            "transitions": transitions,
            "start": start,
        },
        "automaton": {
            "states": ["e", "p", "pt", "ptp", "ptpt", "d", "dp", "dd"],
            "initial": "e",
            "edges": [
                {"from": "e", "to": "p", "select": ["produce"]},
                {"from": "p", "to": "pt", "select": ["transport"]},
                {"from": "pt", "to": "ptp", "select": ["produce"]},
                {"from": "ptp", "to": "ptpt", "select": ["transport"]},
                {"from": "ptpt", "to": "e", "select": ["accident"] + buys},
                {"from": "e", "to": "d", "select": list(ships)},
                {"from": "d", "to": "dd", "select": list(ships)},
                {"from": "d", "to": "dp", "select": ["produce"]},
                {"from": "dp", "to": "dd", "select": ["transport"]},
                {"from": "pt", "to": "dd", "select": list(ships)},
                {"from": "dd", "to": "e", "select": list(buys)},
            ],
        },
        "annotate": False,
        "safety": {"op": "exists",
                   "marking": dict({"warehouse": c}, **{s: c for s in stores})},
        "bad": {"mode": "adverse", "states": ["e"]},
        "b_post": [{"marking": start, "state": "e"}],
        "limits": {"max_iters": 10000},
    }


def oracle_distance(doc: dict, max_depth: int = 1000):
    """Fewest steps from the start, in the automaton's initial state, to
    a marking that covers the safety marking; None beyond `max_depth`.

    Plain breadth-first search over explicit (marking, state) pairs,
    reading only the document: it shares no code with the library.
    Applies to unannotated Petri documents with an `exists` safety.
    """
    places = doc["petri"]["places"]
    index = {p: i for i, p in enumerate(places)}

    def vector(weights):
        v = [0] * len(places)
        for p, w in weights.items():
            v[index[p]] = w
        return tuple(v)

    trans = {t["name"]: (vector(t.get("pre", {})), vector(t.get("post", {})))
             for t in doc["petri"]["transitions"]}
    steps = {}
    for e in doc["automaton"]["edges"]:
        steps.setdefault(e["from"], []).extend(
            (e["to"], trans[name]) for name in e["select"])
    goal = vector(doc["safety"]["marking"])
    start = (vector(doc["petri"]["start"]), doc["automaton"]["initial"])
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        (m, q), dist = frontier.popleft()
        if all(x >= g for x, g in zip(m, goal)):
            return dist
        if dist == max_depth:
            continue
        for q2, (pre, post) in steps.get(q, ()):
            if all(x >= p for x, p in zip(m, pre)):
                nxt = (tuple(x - p + a for x, p, a in zip(m, pre, post)), q2)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append((nxt, dist + 1))
    return None


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1)
