"""Regenerate ``reference.json``: oracle cycles and pinned simulated cycles.

Usage (from the repository root)::

    python3 perfbench/make_reference.py

Takes several minutes: the ``HardwareOracle`` runs the per-cycle
baseline on every app (about 1 min for the small suite, 4-5 min for the
medium one).  The benchmark reads the stored numbers, so no benchmark
run pays for the oracle.  The pinned cycles are the simulators' own
outputs at the commit that wrote the file; a host-time change must
reproduce them bit for bit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro import (  # noqa: E402
    SwiftSimAnalytic,
    SwiftSimBasic,
    SwiftSimMemory,
    get_preset,
    make_app,
)
from repro.oracle import HardwareOracle  # noqa: E402

from workloads import APPS, GPU, sweep_configs, sweep_lanes  # noqa: E402

REFERENCE = HERE / "reference.json"


def build() -> dict:
    gpu = get_preset(GPU)
    oracle = HardwareOracle(gpu)
    configs = sweep_configs(gpu)
    reference = {
        "gpu": GPU,
        "apps": list(APPS),
        "sweep_lanes": [list(lane) for lane in sweep_lanes()],
        "oracle": {},
        "cycles": {"swift-basic": {}, "swift-memory": {}, "swift-analytic": {}},
    }
    for scale in ("small", "medium"):
        reference["oracle"][scale] = {}
        for name in APPS:
            cycles = oracle.measure(make_app(name, scale))
            reference["oracle"][scale][name] = cycles
            print(f"oracle {scale} {name} {cycles}", flush=True)
    for key, cls in (("swift-basic", SwiftSimBasic), ("swift-memory", SwiftSimMemory)):
        for name in APPS:
            result = cls(gpu).simulate(make_app(name, "small"), gather_metrics=False)
            reference["cycles"][key][name] = result.total_cycles
    analytic = SwiftSimAnalytic(gpu)
    for name in APPS:
        lanes = analytic.evaluate_batch(make_app(name, "medium"), configs)
        reference["cycles"]["swift-analytic"][name] = [int(c) for c in lanes]
    return reference


def main() -> int:
    reference = build()
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
