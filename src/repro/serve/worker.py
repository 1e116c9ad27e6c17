"""Job execution: the function the service hands to the Supervisor.

Lives at module level (not a closure) so pooled Supervisor workers can
pickle it across process boundaries — the same constraint the sweep
driver's tasks obey.  Each execution rebuilds everything from the
request's value form (app name, scale, config dict): workers share no
in-memory state with the server, which is what makes a crashed worker
retryable and a crashed *server* recoverable from the journal alone.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ConfigError, ServeError
from repro.frontend.config import GPUConfig
from repro.frontend.config_io import gpu_config_from_dict
from repro.frontend.presets import get_preset
from repro.resilience.journal import result_to_dict
from repro.simulators.accel_like import AccelSimLike
from repro.simulators.interval import IntervalSimulator
from repro.simulators.swift_analytic import SwiftSimAnalytic
from repro.simulators.swift_basic import SwiftSimBasic
from repro.simulators.swift_memory import SwiftSimMemory
from repro.tracegen.suites import make_app

#: Simulators the service will execute.  Mirrors the CLI registry; the
#: serve layer keeps its own copy so workers never import the CLI.
SIMULATORS: Dict[str, type] = {
    "accel-like": AccelSimLike,
    "swift-basic": SwiftSimBasic,
    "swift-memory": SwiftSimMemory,
    "swift-analytic": SwiftSimAnalytic,
    "interval": IntervalSimulator,
}


def resolve_gpu(config: Optional[Dict], gpu_preset: str) -> GPUConfig:
    """The request's GPU: an explicit config dict, else a preset."""
    if config is not None:
        return gpu_config_from_dict(config)
    return get_preset(gpu_preset)


def execute_job(
    app_name: str,
    scale: str,
    config: Optional[Dict],
    gpu_preset: str,
    simulator_name: str,
) -> Dict:
    """Run one job to completion and return the journal-form result.

    Returns a plain dict (:func:`~repro.resilience.journal.result_to_dict`
    form) rather than a ``SimulationResult`` so the payload crosses the
    worker pipe, the journal, and the store without re-serialization.
    """
    simulator_cls = SIMULATORS.get(simulator_name)
    if simulator_cls is None:
        raise ConfigError(
            f"unknown simulator {simulator_name!r}; "
            f"known: {sorted(SIMULATORS)}"
        )
    gpu = resolve_gpu(config, gpu_preset)
    app = make_app(app_name, scale=scale)
    result = simulator_cls(gpu).simulate(app)
    return result_to_dict(result)


def validate_result_payload(payload: Dict) -> Dict:
    """Reject worker payloads that are not a result dict (e.g. chaos
    corruption) before they reach the store."""
    if not isinstance(payload, dict) or "total_cycles" not in payload:
        raise ServeError(f"worker returned a non-result payload: "
                         f"{str(payload)[:80]!r}")
    return payload
