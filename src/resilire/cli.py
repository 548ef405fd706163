"""Command line front end.

Subcommands: check, approx, prestar, post, compose.  All results go to
stdout as JSON (sorted keys, so reports are byte-stable); diagnostics go
to stderr.  Exit codes: 0 on a result (from `check`, a found bound), 1
when `check` finds that none exists, 2 on any error, unreadable files
and uncaught exceptions included, and 3 when a `limits` guard tripped
first (from `check`, an `exhausted` verdict).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import traceback
from dataclasses import replace

from . import engine, model
from .errors import GuardExceeded, ResilError, SaturationExhausted
from .order import minimize

EXIT_FOUND = 0
EXIT_UNBOUNDED = 1
EXIT_ERROR = 2
EXIT_EXHAUSTED = 3


def _emit(obj) -> None:
    """Write `obj` as indented JSON with sorted keys, in batches of
    encoder chunks, so that a long trace is never one string."""
    chunks = json.JSONEncoder(sort_keys=True, indent=1).iterencode(obj)
    for batch in iter(lambda: "".join(itertools.islice(chunks, 65536)), ""):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def _load(path: str) -> model.BuiltModel:
    doc = model.load(path)
    env_iters = os.environ.get("RESIL_MAX_ITERS")
    if env_iters:
        if not env_iters.isdecimal() or int(env_iters) < 1:
            raise ResilError("RESIL_MAX_ITERS must be a positive integer, not %r"
                             % env_iters)
        doc = replace(doc, limits=replace(doc.limits, max_iters=int(env_iters)))
    return model.build(doc)


def _count(text: str) -> int:
    """argparse type of the count options: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError("must be a non-negative integer, not %r" % text)
    return int(text)


def _bound_json(value):
    return "infinity" if value == engine.INFINITY else value


def _trace_json(built: model.BuiltModel, bases) -> list:
    """Per-round report: each round's basis and its elements in the bad set."""
    return [{"k": i,
             "basis": built.basis_to_json(basis),
             "bad_side": [built.state_to_json(s) for s in basis.elements
                          if built.bad.contains(s)]}
            for i, basis in enumerate(bases)]


def cmd_check(args) -> int:
    built = _load(args.model)
    verdict = engine.min_recovery(built.instance(), keep_trace=args.trace)
    report = {"verdict": verdict.kind, "iterations": verdict.iterations}
    if verdict.kind == engine.FOUND:
        report["k_min"] = verdict.k_min
    if verdict.kind == engine.EXHAUSTED:
        report["reason"] = verdict.reason
    if args.k is not None:
        report["k"] = args.k
        report["explicit"] = (None if verdict.kind == engine.EXHAUSTED
                              else verdict.kind == engine.FOUND and verdict.k_min <= args.k)
    if args.trace and verdict.trace is not None:
        report["trace"] = _trace_json(built, verdict.trace)
    _emit(report)
    if verdict.kind == engine.FOUND:
        return EXIT_FOUND
    if verdict.kind == engine.UNBOUNDED:
        return EXIT_UNBOUNDED
    return EXIT_EXHAUSTED


def cmd_approx(args) -> int:
    if args.under is None and not args.over:
        raise ResilError("nothing to do: pass --under DEPTH and/or --over")
    built = _load(args.model)
    report = {"guarantee": "k_under <= k_min <= k_over"}
    k_under, k_over = engine.approx_bounds(
        built.start, built.bad, built.safe, built.backend, depth=args.under,
        over=args.over, limits=built.doc.limits)
    if args.under is not None:
        report["k_under"] = _bound_json(k_under)
        report["depth"] = args.under
    if args.over:
        report["k_over"] = _bound_json(k_over)
    _emit(report)
    return EXIT_FOUND


def cmd_prestar(args) -> int:
    built = _load(args.model)
    if args.trace:
        basis, index, trace = engine.pre_star(
            built.safe, built.backend, built.doc.limits.max_iters, keep_trace=True)
    else:
        basis, index = engine.pre_star(
            built.safe, built.backend, built.doc.limits.max_iters)
    report = {"basis": built.basis_to_json(basis), "index": index}
    if args.trace:
        report["trace"] = _trace_json(built, trace)
    _emit(report)
    return EXIT_FOUND


def cmd_post(args) -> int:
    built = _load(args.model)
    layers = engine.forward_states(built.start, built.backend, args.depth,
                                   built.doc.limits)
    antichain = minimize([s for layer in layers for s in layer],
                         built.backend.order)
    _emit({
        "depth": args.depth,
        "states_seen": sum(len(l) for l in layers),
        "basis": built.basis_to_json(antichain),
    })
    return EXIT_FOUND


def cmd_compose(args) -> int:
    with open(args.model, "r", encoding="utf-8") as fh:
        text = model.compose(fh.read())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_FOUND


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resil",
        description="Recovery-bound checking for well-structured models "
                    "(Petri nets and graph rewriting) by backward saturation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide the minimal recovery bound")
    p.add_argument("model")
    p.add_argument("--k", type=_count, default=None,
                   help="also answer the fixed-bound question for this k")
    p.add_argument("--trace", action="store_true",
                   help="include every saturation round in the report")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("approx", help="bound k_min without a reachability basis")
    p.add_argument("model")
    p.add_argument("--under", type=_count, default=None, metavar="DEPTH",
                   help="lower bound from states reachable within DEPTH steps")
    p.add_argument("--over", action="store_true",
                   help="upper bound by forward ideal saturation")
    p.set_defaults(fn=cmd_approx)

    p = sub.add_parser("prestar", help="saturate the safety ideal backwards")
    p.add_argument("model")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=cmd_prestar)

    p = sub.add_parser("post", help="minimized antichain of bounded forward reach")
    p.add_argument("model")
    p.add_argument("--depth", type=_count, required=True)
    p.set_defaults(fn=cmd_post)

    p = sub.add_parser("compose", help="flatten automaton and annotation into rules")
    p.add_argument("model")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_compose)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ResilError, OSError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        tripped = isinstance(exc, (SaturationExhausted, GuardExceeded))
        return EXIT_EXHAUSTED if tripped else EXIT_ERROR
    except Exception as exc:  # a fault of the checker: never an answer's exit code
        traceback.print_exc(file=sys.stderr)
        sys.stderr.write("error: internal %s: %s\n" % (type(exc).__name__, exc))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
