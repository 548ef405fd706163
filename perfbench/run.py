"""The resilire benchmark: time to verdict (relative to a reference
burst timed meanwhile, see reference.py), set-up time and peak memory
per workload, with every answer checked, or per-layer figures from a
separate traced run.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are described in perfbench/README.md.  The run
first checks the cheap fixtures against their published answers, then
repeats the workload's operation on a freshly built model until the
next repetition would end after S seconds (at least once).  With
--trace 1 it makes one untraced and one traced repetition instead.
Summary lines go to stdout; the last line is one JSON object with the
keys correct, attempted, failed and metrics.  The exit code is 0 only
when every operation gave its expected answer; without the library's
sources next to this directory the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import Sampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-ups are timed half before and half after the repetitions, so that
# their median spans the run rather than one moment of a shared machine.
SETUP_PROBES = 8


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def library_present() -> bool:
    """Import resilire from this checkout's sources, and only from there."""
    src = ROOT / "src"
    if not (src / "resilire" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        return False
    sys.path.insert(0, str(src))
    import resilire
    return Path(resilire.__file__).resolve().parent == (src / "resilire").resolve()


def setup_times(workload: str, seed: int, doc_path: Path, count: int) -> list:
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
             str(doc_path)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_once(workload, built, sample: bool = True):
    """One repetition: every call of the workload, timed as one interval.

    Returns the calls, their results, the seconds they took and, when
    `sample`, the `Sampler` that timed reference bursts meanwhile (its
    bursts are not in the seconds returned)."""
    from workloads import attempt
    calls = workload.calls(built)
    sampler = Sampler() if sample else None
    with sampler or contextlib.nullcontext():
        started = time.perf_counter()
        results = [attempt(call) for call in calls]
    elapsed = time.perf_counter() - started
    if sampler is None:
        return calls, results, elapsed, None
    elapsed -= sampler.paused
    if not sampler.bursts:
        sampler.sample_once()
    return calls, results, elapsed, sampler


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat(workload, doc, seconds: float, sample: bool = True):
    """Repeat on fresh builds while the next repetition, predicted to
    take as long as the slowest so far, still ends within `seconds`.

    Returns each repetition's seconds and, when `sample`, its seconds
    over the mean reference burst timed during it; the outcomes; and
    the peak RSS reached by the end of the first repetition (later ones
    only add fragmentation, and how many there are depends on the
    machine's speed)."""
    from resilire import model
    from workloads import Outcome, judge
    durations, relative, outcomes, first_report = [], [], [], None
    started = time.perf_counter()
    while True:
        built = model.build(doc)
        gc.collect()
        calls, results, elapsed, sampler = run_once(workload, built, sample)
        durations.append(elapsed)
        judged = [judge(call, *res) for call, res in zip(calls, results)]
        if sampler is not None:
            relative.append(elapsed / sampler.mean())
            if sampler.wrong:
                judged.append(Outcome("reference work", "differs",
                                      ("%d bursts computed a wrong checksum"
                                       % sampler.wrong,)))
        report = "\n".join(o.report for o in judged)
        if first_report is None:
            first_report, first_peak = report, peak_rss_mb()
        elif report != first_report and all(o.ok for o in judged):
            judged.append(Outcome("repeat", "differs",
                                  ("answer differs between identical calls",)))
        outcomes += judged
        del built, calls, results
        spent = time.perf_counter() - started
        if spent + max(durations) > seconds:
            return durations, relative, outcomes, first_peak


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_rel"):
        return "x"
    return "count"


def traced_run(workload, doc_path: Path, seed: int, doc):
    from resilire import model
    from tracing import SPAN_COLUMNS, Tracer
    from workloads import HOOKS, judge, layer_metrics
    untraced, _relative, outcomes, _peak = repeat(workload, doc, 0, sample=False)
    tracer = Tracer()
    gc.collect()
    with tracer.installed(HOOKS):
        built = model.build(model.load(str(doc_path)))
        calls, results, traced, _none = run_once(workload, built, sample=False)
    outcomes += [judge(call, *res) for call, res in zip(calls, results)]
    tracer.write(str(OUT / ("trace-%s-%d" % (workload.name, seed))),
                 {"workload": workload.name, "seed": seed,
                  "solve_s": traced, "untraced_solve_s": untraced[0]})
    metrics = layer_metrics(tracer, built, untraced[0], traced)
    print("traced solve %.3f s against %.3f s untraced; %d spans"
          % (traced, untraced[0], len(tracer.spans) // len(SPAN_COLUMNS)))
    return metrics, outcomes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not library_present():
        sys.stderr.write("error: no resilire sources (src/resilire, fixtures) under %s\n"
                         % ROOT)
        return 2
    sys.path.insert(0, str(HERE))
    import inputs
    from resilire import model
    from workloads import WORKLOADS, fixture_gate
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.stderr.write("error: unknown workload %r; known: %s\n"
                         % (args.workload, ", ".join(WORKLOADS)))
        return 2

    OUT.mkdir(exist_ok=True)
    doc_path = OUT / ("%s-%d.json" % (workload.name, args.seed))
    doc_dict = inputs.document(workload.name, ROOT, args.seed)
    doc_path.write_text(inputs.dumps(doc_dict), encoding="utf-8")

    outcomes = fixture_gate(ROOT) + workload.gate(doc_dict)
    doc = model.load(str(doc_path))
    if args.trace:
        metrics, timed = traced_run(workload, doc_path, args.seed, doc)
        outcomes += timed
        values = metrics
    else:
        setups = setup_times(workload.name, args.seed, doc_path, SETUP_PROBES // 2)
        durations, relative, timed, peak = repeat(workload, doc, args.seconds)
        setups += setup_times(workload.name, args.seed, doc_path, SETUP_PROBES // 2)
        outcomes += timed
        values = {
            "solve_rel": statistics.median(relative),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak,
        }
        print("solve_s per repetition: %s" % " ".join("%.4f" % d for d in durations))
        print("solve_rel per repetition: %s" % " ".join("%.2f" % r for r in relative))
        print("setup_s per probe: %s" % " ".join("%.4f" % s for s in setups))

    failed = [o for o in outcomes if not o.ok]
    for o in failed:
        print("FAILED %s (%s): %s" % (o.name, o.kind, "; ".join(o.problems)))
    print("workload %s seed %d: %d operations, %d failed, fail_ratio %.4g ratio"
          % (workload.name, args.seed, len(outcomes), len(failed),
             len(failed) / len(outcomes)))
    for name, value in values.items():
        print("  %-40s %.6g %s" % (name, value, unit_of(name)))
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in values.items()}
    print(json.dumps({"correct": not failed, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
