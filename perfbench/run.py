"""Same-host benchmark of the simulator: one workload per invocation.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite-basic --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` makes the separate traced run and prints the per-layer
metrics instead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every op's output checked out.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Exit code for a checkout without the program (nothing is measured).
NO_PROGRAM = 2


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def execute(args, reference=None, apps=None, out_dir: Path = HERE / "out") -> int:
    """Run one workload and print its report; return the exit code."""
    started = time.perf_counter()
    import repro  # noqa: F401 — the import is part of set-up

    import_s = time.perf_counter() - started
    import harness
    from workloads import APPS, WORKLOADS

    workload = WORKLOADS[args.workload]
    started = time.perf_counter()
    if reference is None:
        reference = harness.load_reference()
    reference_s = time.perf_counter() - started
    run = harness.Run(workload, args.seed, args.seconds, bool(args.trace),
                      reference, apps or APPS)
    run.setup(import_s + reference_s)
    run.run_ops()
    tally = run.tally

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {tally.attempted} ops attempted, "
          f"{tally.failed} failed (fail_frac {tally.failed / max(tally.attempted, 1):.4f})")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    metrics = {}
    if tally.cycles and not tally.failed:
        print(f"cycles (first pass, sum) {sum(tally.cycles.values())}")
        for name, value in run.counts().items():
            print(f"count {name} {value}")
        if args.trace:
            metrics = traced_metrics(run)
            dump_spans(run, out_dir / f"spans-{workload.name}-seed{args.seed}.json")
        else:
            units = dict(harness.END_TO_END)
            measured, reported = run.end_to_end()
            if tally.probes:
                print(f"host slowdown {run.host_slowdown():.4f} (mean probe "
                      f"over {harness.PROBE_REFERENCE_S * 1e3:g} ms reference)")
            for name, value in measured.items():
                print(f"measured {name} {value:.6g} {units[name]}")
            metrics = {
                name: {"value": value, "unit": units[name]}
                for name, value in reported.items()
            }
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def traced_metrics(run) -> dict:
    import harness

    metrics = {}
    for layer, values in run.tracer.report().items():
        metrics[f"{layer}.calls"] = {"value": values["calls"], "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": values["self_s"], "unit": "s"}
        metrics[f"{layer}.share"] = {"value": values["share"], "unit": "ratio"}
    units = dict(harness.RESILIENCE)
    for name, value in run.resilience().items():
        metrics[name] = {"value": value, "unit": units[name]}
    for name, value in run.counts().items():
        metrics[name] = {"value": value, "unit": "count" if isinstance(value, int) else "ratio"}
    metrics["trace.overhead_x"] = {"value": run.trace_overhead(), "unit": "x"}
    metrics["trace.uncovered_s"] = {
        "value": run.tracer.max_uncovered_s, "unit": "s"}
    return metrics


def dump_spans(run, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(run.tracer.dump()) + "\n")
    print(f"spans written to {path}")


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return NO_PROGRAM
    sys.path.insert(0, str(ROOT / "src"))
    return execute(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
