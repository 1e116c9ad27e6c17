"""Run every workload, untraced over several seeds and traced once, and
print the end-to-end metrics with their spread and the per-layer shares.

Usage, from the repository root::

    python3 perfbench/report.py                       # all four workloads, seed 1
    python3 perfbench/report.py --seeds 1-10 --no-trace
    python3 perfbench/report.py --workloads suite-basic --seeds 1-5

For each end-to-end metric it prints the median, the quartiles and the
spread (interquartile range over median) of the per-seed values, and
marks a spread at or above a third of the metric's bound in
``BENCHMARK.json``.  Each run is its own ``run.py`` process; runs go one
after another so they do not disturb each other's timings.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stdout}{completed.stderr}")
    report = json.loads(lines[-1])
    report["elapsed_s"] = time.perf_counter() - started
    # "measured <name> <value> <unit>": the unscaled host-time figures.
    report["measured"] = {
        parts[1]: float(parts[2])
        for parts in (line.split() for line in lines)
        if parts[0] == "measured"
    }
    return report


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced run")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    for workload in args.workloads.split(","):
        values = {}
        measured = {}
        for seed in seeds:
            report = run_once(workload, seed, args.seconds, 0)
            for name, metric in report["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in report["measured"].items():
                measured.setdefault(name, []).append(value)
            print(f"{workload} seed {seed} ({report['elapsed_s']:.1f} s): "
                  + ", ".join(f"{n}={m['value']:.5g}"
                              for n, m in report["metrics"].items()),
                  flush=True)
        for name, series in values.items():
            if len(series) > 1:
                q1, q2, q3 = stats.quartiles(series)
                spread = stats.spread(series)
                flag = " <-- above bound/3" if spread >= bounds[name] / 3 else ""
                print(f"  {name}: median {q2:.5g} {units[name]}, q1 {q1:.5g}, "
                      f"q3 {q3:.5g}, spread {spread:.4f} "
                      f"(bound {bounds[name]}){flag}", flush=True)
        for name, series in measured.items():
            spread = f", spread {stats.spread(series):.4f}" if len(series) > 1 else ""
            print(f"  measured (unscaled) {name}: median "
                  f"{stats.median(series):.5g}{spread}")
        if args.no_trace:
            continue
        traced = run_once(workload, seeds[0], args.seconds, 1)["metrics"]
        print(f"  traced (seed {seeds[0]}): overhead "
              f"{traced['trace.overhead_x']['value']:.3f}x, largest uncovered "
              f"{traced['trace.uncovered_s']['value']:.3g} s")
        shares = sorted(
            ((m["value"], n[:-len(".share")]) for n, m in traced.items()
             if n.endswith(".share") and m["value"] > 0), reverse=True)
        for share, layer in shares:
            print(f"    {layer:40s} {100 * share:6.2f}%  "
                  f"{traced[layer + '.calls']['value']} calls", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
