"""The model document: a single JSON file describing a backend, an
optional control automaton, the safety and bad conditions, an optional
basis of the reachable states, and resource limits.

Format key: "resilire/1".  Graphs are explicit node/edge lists with
string ids, rule morphisms are explicit id pairs, markings are objects
mapping place names to counts (absent means zero).  Everything is
validated up front; computations never see an inconsistent document.
Every field is read through one checked reader (`_Reader`), so a
malformed document is refused with JSON pointers to its faults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from . import constraints as cns
from . import control as ctl
from .engine import ResilienceInstance
from .errors import ModelError
from .graphs import Graph, GraphClass
from .limits import Limits
from .order import Basis, minimize
from .petri import (ENVIRONMENT, MARKERS, Marking, PetriBackend, PetriNet,
                    ProductBackend, START_MARKER, SYSTEM, make_net)
from .rewriting import GraphBackend, Rule, rule_problems

FORMAT = "resilire/1"
OWNERS = (SYSTEM, ENVIRONMENT)
LIMIT_FIELDS = ("max_iters", "overlap_nodes", "overlap_count",
                "forward_depth_cap", "forward_state_cap")

_REQUIRED = object()
_TYPE_NAMES = {str: "a string", int: "an integer", bool: "true or false",
               list: "a list", dict: "an object"}


def _pointer(where: str, key) -> str:
    """`where` extended by one JSON-pointer step (RFC 6901 escaping)."""
    return "%s/%s" % (where, str(key).replace("~", "~0").replace("/", "~1"))


class _Reader:
    """Reads document fields and collects what is wrong with them.

    A read names what it expects: a JSON type (`int` never accepts a
    bool) with an optional least value, or a tuple of allowed values.
    A missing or ill-typed field adds an issue, its JSON pointer and a
    message, and the read returns the default, so parsing goes on and
    one error lists every issue.  An optional field given as null
    counts as absent.
    """

    def __init__(self):
        self.issues: List[Tuple[str, str]] = []

    def add(self, where: str, msg: str):
        self.issues.append((where, msg))

    def raise_if_any(self):
        if self.issues:
            raise ModelError(self.issues)

    def fits(self, value, where: str, kind, least: Optional[int] = None) -> bool:
        if isinstance(kind, tuple):
            if value in kind:
                return True
            self.add(where, "must be one of %s, not %r"
                     % (", ".join(map(repr, kind)), value))
            return False
        if (isinstance(value, kind) and not (kind is int and isinstance(value, bool))
                and (least is None or value >= least)):
            return True
        self.add(where, "must be %s%s" % (
            _TYPE_NAMES[kind], "" if least is None else " >= %d" % least))
        return False

    def read(self, obj: dict, key: str, where: str, kind, default=_REQUIRED,
             least: Optional[int] = None):
        """obj[key] if it fits `kind`; otherwise `default` (None when the
        field is required, which makes its absence an issue)."""
        value = obj.get(key)
        where = _pointer(where, key)
        if value is None:
            if default is _REQUIRED:
                self.add(where, "is required")
                return None
            return default
        if self.fits(value, where, kind, least):
            return value
        return None if default is _REQUIRED else default

    def each(self, obj: dict, key: str, where: str, kind, default=()):
        """(index, pointer, item) for the items of the list obj[key] that
        fit `kind`; `default` when the list is absent or not a list."""
        items = self.read(obj, key, where, list, None)
        if items is None:
            return default
        where = _pointer(where, key)
        return [(i, _pointer(where, i), item) for i, item in enumerate(items)
                if self.fits(item, _pointer(where, i), kind)]

    def strings(self, obj: dict, key: str, where: str, kind=str) -> Tuple:
        return tuple(item for _i, _w, item in self.each(obj, key, where, kind))

    def counts(self, obj: dict, key: str, where: str, places) -> Dict[str, int]:
        """obj[key] as a map from `places` to non-negative integers."""
        mapping = self.read(obj, key, where, dict, {})
        where = _pointer(where, key)
        out = {}
        for place, n in mapping.items():
            if place not in places:
                self.add(_pointer(where, place), "unknown place %r" % place)
            elif self.fits(n, _pointer(where, place), int, 0):
                out[place] = n
        return out


@dataclass(frozen=True)
class ModelDocument:
    kind: str
    annotate: bool
    net: Optional[PetriNet]
    petri_start: Optional[Dict[str, int]]
    rules: Optional[Tuple[Rule, ...]]
    base_class: Optional[GraphClass]
    gts_start: Optional[Graph]
    automaton: Optional[ctl.ControlAutomaton]
    safety: object
    bad_spec: dict
    b_post: Optional[tuple]
    limits: Limits
    notes: Optional[str] = None
    control_labels: Tuple[str, ...] = ()
    marker_labels: Tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _parse_graph(obj: dict, where: str, r: _Reader) -> Optional[Graph]:
    nodes = {}
    for i, nwhere, n in r.each(obj, "nodes", where, dict):
        nid = r.read(n, "id", nwhere, str, "n%d" % i)
        if nid in nodes:
            r.add(nwhere, "duplicate node id %r" % nid)
        label = r.read(n, "label", nwhere, str)
        if label is not None:
            nodes[nid] = label
    edges = {}
    ok = True
    for i, ewhere, e in r.each(obj, "edges", where, dict):
        eid = r.read(e, "id", ewhere, str, "e%d" % i)
        if eid in edges:
            r.add(ewhere, "duplicate edge id %r" % eid)
        src, tgt, label = (r.read(e, k, ewhere, str) for k in ("src", "tgt", "label"))
        if src is None or tgt is None or label is None:
            ok = False
        elif src not in nodes or tgt not in nodes:
            r.add(ewhere, "edge %r references a missing node" % eid)
            ok = False
        else:
            edges[eid] = (src, tgt, label)
    return Graph(nodes, edges) if ok else None


def _graph_json(g: Graph, order=None) -> dict:
    """Nodes and edges, each sorted by id under `order`."""
    return {
        "nodes": [{"id": i, "label": l} for i, l in sorted(g.nodes.items(), key=order)],
        "edges": [{"id": i, "src": s, "tgt": t, "label": l}
                  for i, (s, t, l) in sorted(g.edges.items(), key=order)],
    }


def graph_to_json(g: Graph) -> dict:
    # canonical ids are "n<i>" / "e<i>": sort them by number
    return _graph_json(g.canonical(), order=lambda kv: int(kv[0][1:]))


def _parse_class(obj: dict, where: str, r: _Reader) -> GraphClass:
    counts = []
    cwhere = _pointer(where, "node_count")
    for lab, rng in sorted(r.read(obj, "node_count", where, dict, {}).items()):
        lwhere = _pointer(cwhere, lab)
        if r.fits(rng, lwhere, dict):
            counts.append((lab, (r.read(rng, "min", lwhere, int, None, least=0),
                                 r.read(rng, "max", lwhere, int, None, least=0))))
    return GraphClass(
        max_path=r.read(obj, "max_path", where, int, None, least=0),
        node_count=tuple(counts),
        quotient_labels=frozenset(r.strings(obj, "quotient_isolated", where)),
    )


def _class_to_json(k: GraphClass) -> dict:
    out: dict = {}
    if k.max_path is not None:
        out["max_path"] = k.max_path
    if k.node_count:
        out["node_count"] = {
            lab: {key: val for key, val in (("min", lo), ("max", hi)) if val is not None}
            for lab, (lo, hi) in k.node_count
        }
    if k.quotient_labels:
        out["quotient_isolated"] = sorted(k.quotient_labels)
    return out


def _parse_rules(section: dict, r: _Reader) -> Tuple[Rule, ...]:
    rules = []
    names = set()
    for i, rwhere, obj in r.each(section, "rules", "/gts", dict):
        name = r.read(obj, "name", rwhere, str, "rule%d" % i)
        if name in names:
            r.add(rwhere, "duplicate rule name %r" % name)
        names.add(name)
        owner = r.read(obj, "owner", rwhere, OWNERS, SYSTEM)
        left = _parse_graph(r.read(obj, "left", rwhere, dict, {}), rwhere + "/left", r)
        right = _parse_graph(r.read(obj, "right", rwhere, dict, {}), rwhere + "/right", r)
        mwhere = rwhere + "/map"
        mp = r.read(obj, "map", rwhere, dict, {})
        maps = []
        for key in ("nodes", "edges"):
            pairs = {}
            for _j, pwhere, pair in r.each(mp, key, mwhere, list):
                if len(pair) != 2:
                    r.add(pwhere, "must be a [left id, right id] pair")
                elif r.fits(pair[0], pwhere, str) and r.fits(pair[1], pwhere, str):
                    pairs[pair[0]] = pair[1]
            maps.append(pairs)
        if left is None or right is None:
            continue
        problems = rule_problems(left, right, *maps)
        for p in problems:
            r.add(mwhere, "rule %r: %s" % (name, p))
        if not problems:
            rules.append(Rule(name, owner, left, right, *maps))
    return tuple(rules)


def _rule_to_json(r: Rule) -> dict:
    return {
        "name": r.name,
        "owner": r.owner,
        "left": _graph_json(r.left),
        "right": _graph_json(r.right),
        "map": {
            "nodes": [[a, b] for a, b in sorted(r.node_map.items())],
            "edges": [[a, b] for a, b in sorted(r.edge_map.items())],
        },
    }


def _parse_literal(obj: dict, where: str, r: _Reader, net: Optional[PetriNet],
                   states: Tuple[str, ...], markers: Tuple[str, ...]):
    """A state literal, as written in constraint leaves and in b_post:
    a `marking` (Petri models) or a `graph`, absent meaning empty, with
    an optional control `state` and owner `marker` from the model's
    `states` and `markers`.  Returns (tokens or graph, state, marker);
    a graph gets the state and marker nodes added.  The first is None
    when the literal is unusable."""
    state = r.read(obj, "state", where, str, None)
    marker = r.read(obj, "marker", where, MARKERS, None)
    # A marking order refuses a state or marker its model lacks; a graph
    # order would take the node for one of an ordinary label.
    if state is not None and (states or net is None) and state not in states:
        r.add(_pointer(where, "state"), "unknown automaton state %r" % state)
    if marker is not None and net is None and marker not in markers:
        r.add(_pointer(where, "marker"), "the model is not annotated")
    if net is not None:
        return net.weights(r.counts(obj, "marking", where, net.places)), state, marker
    g = _parse_graph(r.read(obj, "graph", where, dict, {}), _pointer(where, "graph"), r)
    if g is not None:
        g = ctl.with_control(g, state, marker)
    return g, state, marker


def _parse_constraint(obj: dict, where: str, r: _Reader, net: Optional[PetriNet],
                      states: Tuple[str, ...], markers: Tuple[str, ...]):
    op = r.read(obj, "op", where, ("and", "or", "exists", "not_exists"))
    if op is None:
        return None
    if op in ("and", "or"):
        parts = tuple(
            p for p in (_parse_constraint(a, w, r, net, states, markers)
                        for _i, w, a in r.each(obj, "args", where, dict))
            if p is not None)
        if not parts:
            r.add(where, "'%s' needs at least one argument" % op)
            return None
        return cns.And(parts) if op == "and" else cns.Or(parts)
    body, state, marker = _parse_literal(obj, where, r, net, states, markers)
    if body is None:
        return None
    pattern = body if net is None else cns.VectorPattern(body, state, marker)
    return cns.Exists(pattern) if op == "exists" else cns.NotExists(pattern)


def _with_tags(out: dict, state, marker) -> dict:
    """`out` with the control `state` and owner `marker`, where given."""
    if state is not None:
        out["state"] = state
    if marker is not None:
        out["marker"] = marker
    return out


def _marking_to_json(net: PetriNet, m) -> dict:
    """A marking or marking pattern: its nonzero counts, state and marker."""
    counts = {p: n for p, n in zip(net.places, m.tokens) if n}
    return _with_tags({"marking": counts}, m.state, m.marker)


def _constraint_to_json(c, net: Optional[PetriNet]) -> dict:
    if isinstance(c, (cns.And, cns.Or)):
        op = "and" if isinstance(c, cns.And) else "or"
        return {"op": op, "args": [_constraint_to_json(p, net) for p in c.parts]}
    out = (_marking_to_json(net, c.pattern) if net is not None
           else {"graph": graph_to_json(c.pattern)})
    out["op"] = "exists" if isinstance(c, cns.Exists) else "not_exists"
    return out


def _parse_b_post(obj: dict, r: _Reader, net: Optional[PetriNet],
                  states: Tuple[str, ...], markers: Tuple[str, ...]) -> Optional[tuple]:
    """The reachable basis; unlike a pattern, each state must name its
    control state and marker when the model has them."""
    items = r.each(obj, "b_post", "", dict, None)
    if items is None:
        return None
    out = []
    for _i, where, item in items:
        body, state, marker = _parse_literal(item, where, r, net, states, markers)
        if body is None:
            continue
        labels = set() if net is not None else set(body.nodes.values())
        if states and state is None and not labels & set(states):
            r.add(where, "state component required with a control automaton")
        elif markers and marker is None and not labels & set(markers):
            r.add(where, "marker component required in an annotated model")
        else:
            out.append(body if net is None else Marking(body, state, marker))
    return tuple(out)


def from_dict(obj: dict) -> ModelDocument:
    if not isinstance(obj, dict):
        raise ModelError([("/", "a model document must be a JSON object")])
    r = _Reader()
    r.read(obj, "format", "", (FORMAT,))
    kind = r.read(obj, "kind", "", ("petri", "gts"))
    if kind is None:
        r.raise_if_any()
    annotate = r.read(obj, "annotate", "", bool, False)
    notes = r.read(obj, "notes", "", str, None)
    limits_obj = r.read(obj, "limits", "", dict, {})
    limits = {}
    for field in LIMIT_FIELDS:
        value = r.read(limits_obj, field, "/limits", int, None, least=1)
        if value is not None:
            limits[field] = value

    net = petri_start = None
    rules = base_class = gts_start = None
    labels_in_use = set()
    section = r.read(obj, kind, "", dict)
    if section is None:
        r.raise_if_any()
    if kind == "petri":
        places = r.strings(section, "places", "/petri")
        specs = [{"name": r.read(t, "name", w, str),
                  "owner": r.read(t, "owner", w, OWNERS, SYSTEM),
                  "pre": r.counts(t, "pre", w, places),
                  "post": r.counts(t, "post", w, places)}
                 for _i, w, t in r.each(section, "transitions", "/petri", dict)]
        petri_start = r.counts(section, "start", "/petri", places)
        r.raise_if_any()
        try:
            net = make_net(places, specs)
        except ValueError as exc:  # duplicate place or transition names
            r.add("/petri", str(exc))
            r.raise_if_any()
        rule_names = {t.name for t in net.transitions}
    else:
        base_class = _parse_class(r.read(section, "class", "/gts", dict, {}),
                                  "/gts/class", r)
        rules = _parse_rules(section, r)
        rule_names = {rule.name for rule in rules}
        if base_class.quotient_labels:
            # States are normalized by erasing isolated nodes with these
            # labels, so no rule may require one on its left side.
            for i, rule in enumerate(rules):
                for nid, lab in rule.left.nodes.items():
                    if lab in base_class.quotient_labels and rule.left.degree(nid) == 0:
                        r.add("/gts/rules/%d/left" % i,
                              "rule %r matches an isolated %r node, which "
                              "the quotient erases from every state"
                              % (rule.name, lab))
        gts_start = _parse_graph(r.read(section, "start", "/gts", dict, {}),
                                 "/gts/start", r)
        for rule in rules:
            for g in (rule.left, rule.right):
                labels_in_use.update(g.nodes.values())
                labels_in_use.update(l for (_s, _t, l) in g.edges.values())
        if gts_start is not None:
            labels_in_use.update(gts_start.nodes.values())

    automaton = None
    a = r.read(obj, "automaton", "", dict, None)
    if a is not None:
        seen = len(r.issues)
        edges = [{"from": r.read(e, "from", w, str), "to": r.read(e, "to", w, str),
                  "select": r.strings(e, "select", w)}
                 for _i, w, e in r.each(a, "edges", "/automaton", dict)]
        declared = r.strings(a, "states", "/automaton")
        initial = r.read(a, "initial", "/automaton", str)
        if len(r.issues) == seen:
            try:
                automaton = ctl.make_automaton(declared, initial, edges, rule_names)
            except ModelError as exc:
                r.issues.extend(exc.issues)
        if automaton is not None and labels_in_use & set(automaton.states):
            r.add("/automaton/states",
                  "automaton states must be disjoint from graph labels: %s"
                  % sorted(labels_in_use & set(automaton.states)))
    if annotate and a is None:
        r.add("/annotate", "annotation needs a control automaton")
    if kind == "gts" and labels_in_use & set(MARKERS) and annotate:
        r.add("/gts", "marker labels %s are reserved in annotated models"
              % sorted(labels_in_use & set(MARKERS)))

    control_labels = r.strings(obj, "control_labels", "")
    marker_labels = r.strings(obj, "marker_labels", "", MARKERS)
    for key, labels in (("control_labels", control_labels),
                        ("marker_labels", marker_labels)):
        if labels and (kind == "petri" or a is not None or annotate):
            r.add("/" + key, "only a flattened graph document (no automaton, "
                             "no annotate) may list %s" % key)
    states = control_labels or (automaton.states if automaton else ())
    markers = MARKERS if annotate or marker_labels else ()

    safety = r.read(obj, "safety", "", dict)
    if safety is not None:
        safety = _parse_constraint(safety, "/safety", r, net, states, markers)
        if safety is not None and cns.polarity(safety) != "positive":
            r.add("/safety", "safety must be a positive constraint")

    bad_spec = r.read(obj, "bad", "", dict)
    if bad_spec is not None:
        bad_spec = dict(bad_spec)
        mode = r.read(bad_spec, "mode", "/bad", ("adverse", "error", "custom"))
        if mode == "adverse":
            observed = set(r.strings(bad_spec, "states", "/bad"))
            if observed and not states:
                r.add("/bad/states", "no control automaton to observe")
            elif observed - set(states):
                r.add("/bad/states", "unknown states %s" % sorted(observed - set(states)))
            env_marker = r.read(bad_spec, "env_marker", "/bad", bool, False)
            if env_marker and not markers:
                r.add("/bad/env_marker", "needs an annotated model")
            if not observed and not env_marker:
                r.add("/bad", "adverse mode needs 'states' and/or 'env_marker'")
        elif mode == "custom":
            c = r.read(bad_spec, "constraint", "/bad", dict)
            if c is not None:
                c = _parse_constraint(c, "/bad/constraint", r, net, states, markers)
            if c is not None and cns.polarity(c) != "negative":
                r.add("/bad/constraint", "must be a negative constraint")
            bad_spec["constraint"] = c

    b_post = _parse_b_post(obj, r, net, states, markers)

    r.raise_if_any()
    return ModelDocument(
        kind=kind, annotate=annotate, net=net, petri_start=petri_start,
        rules=rules, base_class=base_class, gts_start=gts_start,
        automaton=automaton, safety=safety, bad_spec=bad_spec, b_post=b_post,
        limits=Limits(**limits), notes=notes,
        control_labels=control_labels, marker_labels=marker_labels,
    )


def loads(text: str) -> ModelDocument:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError([("/", "not valid JSON: %s" % exc)])
    return from_dict(obj)


def load(path: str) -> ModelDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


# ---------------------------------------------------------------------------
# building runnable artifacts
# ---------------------------------------------------------------------------


@dataclass
class BuiltModel:
    doc: ModelDocument
    backend: object
    domain: object
    safe: Basis
    bad: cns.BadSet
    reachable: Optional[Basis]
    start: object

    def instance(self) -> ResilienceInstance:
        if self.reachable is None:
            raise ModelError([
                ("/b_post",
                 "no basis of the reachable states was supplied; `check` needs "
                 "one -- run `resil approx` for bounds that do not")])
        return ResilienceInstance(
            backend=self.backend, reachable=self.reachable, bad=self.bad,
            safe=self.safe, max_iters=self.doc.limits.max_iters)

    def state_to_json(self, state) -> dict:
        if self.doc.kind == "petri":
            return _marking_to_json(self.doc.net, state)
        klass = self.backend.klass
        return _with_tags({"graph": graph_to_json(state)},
                          klass.control_of(state), klass.marker_of(state))

    def basis_to_json(self, basis: Basis) -> list:
        return [self.state_to_json(s) for s in basis.elements]


def build(doc: ModelDocument) -> BuiltModel:
    if doc.kind == "petri":
        if doc.automaton is not None:
            backend = ProductBackend(doc.net, doc.automaton, doc.annotate)
        else:
            backend = PetriBackend(doc.net)
        domain = cns.MarkingDomain(
            doc.net, backend.order,
            doc.automaton.states if doc.automaton else None, doc.annotate)
        start = Marking(
            doc.net.weights(doc.petri_start),
            doc.automaton.initial if doc.automaton else None,
            START_MARKER if doc.annotate else None)
    else:
        # The automaton and annotation live in the flattened rules; the
        # class only needs their label sets.
        flat = compose_document(doc)
        klass = replace(flat.base_class,
                        control_labels=frozenset(flat.control_labels),
                        marker_labels=frozenset(flat.marker_labels))
        backend = GraphBackend(list(flat.rules), klass, doc.limits)
        domain = cns.GraphDomain(klass, backend.order, doc.limits)
        start = klass.admit(flat.gts_start)
        if start is None:
            raise ModelError([("/gts/start",
                               "start graph lies outside the state class")])

    safe = cns.ideal_basis_of(doc.safety, domain)
    bad = cns.anti_ideal_of(doc.bad_spec, domain, safe)
    reachable = None
    if doc.b_post is not None:
        states = list(doc.b_post)
        if doc.kind == "gts":
            states = [backend.klass.admit(g) for g in states]
            outside = [i for i, g in enumerate(states) if g is None]
            if outside:
                raise ModelError([
                    ("/b_post/%d" % i, "state lies outside the state class")
                    for i in outside])
        reachable = minimize(states, backend.order)
    return BuiltModel(doc, backend, domain, safe, bad, reachable, start)


# ---------------------------------------------------------------------------
# document serialization and composition
# ---------------------------------------------------------------------------


def to_dict(doc: ModelDocument) -> dict:
    out: dict = {"format": FORMAT, "kind": doc.kind, "annotate": doc.annotate}
    if doc.notes:
        out["notes"] = doc.notes
    if doc.kind == "petri":
        out["petri"] = {
            "places": list(doc.net.places),
            "transitions": [
                {"name": t.name, "owner": t.owner,
                 "pre": {p: w for p, w in zip(doc.net.places, t.pre) if w},
                 "post": {p: w for p, w in zip(doc.net.places, t.post) if w}}
                for t in doc.net.transitions
            ],
            "start": dict(doc.petri_start),
        }
    else:
        out["gts"] = {
            "class": _class_to_json(doc.base_class),
            "rules": [_rule_to_json(r) for r in doc.rules],
            "start": graph_to_json(doc.gts_start),
        }
    if doc.automaton is not None:
        out["automaton"] = {
            "states": list(doc.automaton.states),
            "initial": doc.automaton.initial,
            "edges": [{"from": e.src, "to": e.dst, "select": list(e.select)}
                      for e in doc.automaton.edges],
        }
    if doc.control_labels:
        out["control_labels"] = list(doc.control_labels)
    if doc.marker_labels:
        out["marker_labels"] = list(doc.marker_labels)
    out["safety"] = _constraint_to_json(doc.safety, doc.net)
    bad = dict(doc.bad_spec)
    if bad.get("mode") == "custom":
        bad["constraint"] = _constraint_to_json(bad["constraint"], doc.net)
    out["bad"] = bad
    if doc.b_post is not None:
        if doc.kind == "petri":
            out["b_post"] = [_marking_to_json(doc.net, s) for s in doc.b_post]
        else:
            out["b_post"] = [{"graph": graph_to_json(g)} for g in doc.b_post]
    out["limits"] = {}
    for field in LIMIT_FIELDS:
        value = getattr(doc.limits, field)
        if value is not None:  # overlap_nodes: None is the natural bound
            out["limits"][field] = value
    return out


def dumps(doc: ModelDocument) -> str:
    return json.dumps(to_dict(doc), sort_keys=True, indent=1) + "\n"


def compose_document(doc: ModelDocument) -> ModelDocument:
    """Flatten a graph model: compile the automaton (and annotation)
    into the rule set and the class, producing an equivalent document
    with no automaton section."""
    if doc.kind != "gts":
        raise ModelError([
            ("/kind", "only graph models can be flattened; the Petri product "
                      "is built at run time")])
    if doc.automaton is None:  # the loader refuses annotate without one
        return doc
    rules = ctl.enrich_rules(list(doc.rules), doc.automaton)
    marker_labels: Tuple[str, ...] = ()
    if doc.annotate:
        rules = ctl.mark_rules(rules)
        marker_labels = MARKERS
    start = ctl.with_control(doc.gts_start, doc.automaton.initial,
                             START_MARKER if doc.annotate else None)
    return replace(
        doc, rules=tuple(rules), automaton=None, annotate=False,
        gts_start=start, control_labels=tuple(doc.automaton.states),
        marker_labels=marker_labels)
