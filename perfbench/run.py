"""Live benchmark of the D3L engine, its session, and ``repro serve``.

Run from the repository root::

    python3 perfbench/run.py --workload serve_repeat --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the directory it runs in.  Inputs
come from ``--seed`` (see :mod:`corpus`); the workloads, and why each
exists, are in :mod:`workloads`.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the traced passes and reports the per-layer
metrics (see :mod:`tracing`).  Human-readable lines (every metric with its
unit, provenance, the percentile behind each tail, any problem found) come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any wrong answer,
leak or invalid open loop makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Units of the printed metrics that ``BENCHMARK.json`` does not list, by
#: name suffix.
SUFFIX_UNITS = (
    ("_ms", "ms"),
    ("_s", "s"),
    ("_mb", "MB"),
    ("_calls", "count"),
    ("_extents", "count"),
    ("_builds", "count"),
)


def _units(section: str):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def _unit(name: str) -> str:
    for suffix, unit in SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    return "ratio"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import audit
    from workloads import WORKLOADS, Context

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        spans = scratch / f"spans-{workload.name}-{args.seed}.jsonl"
        context = Context(ROOT, args.seed, args.seconds, bool(args.trace), work, spans)
        outcome = workload.run(context)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        audit.stop_resource_tracker()
    # Nothing this run started may outlive it.
    outcome.problems += [
        f"process {pid} still running at exit" for pid in sorted(audit.descendants(os.getpid()))
    ]

    section = "per_layer" if args.trace else "end_to_end"
    units = _units(section)
    # Every metric measured is printed; the last line carries the contract's.
    printed = dict(outcome.metrics)
    if not args.trace:
        printed["error_ratio"] = outcome.failed / max(outcome.attempted, 1)
    for name, value in sorted(printed.items()):
        print(f"{workload.name} {name} = {value:.6g} {units.get(name) or _unit(name)}")
    print("why: " + workload.why)
    print("stresses: " + workload.stresses)
    print("bypasses: " + workload.bypasses)
    report = dict(outcome.report, workload=workload.name, trace=bool(args.trace))
    report.update(audit.provenance(ROOT, args.seed))
    print("report: " + json.dumps(report, sort_keys=True))
    for problem in outcome.problems:
        print("PROBLEM: " + problem)
    missing = [name for name in units if name not in outcome.metrics]
    for name in missing:
        print(f"PROBLEM: metric {name} was not measured")
    correct = not outcome.problems and not missing
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in outcome.metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
