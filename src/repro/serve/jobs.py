"""Wire types for the sweep service protocol (``docs/serving.md``).

Requests and responses cross the unix socket as single JSON lines.  A
request names a workload *specification* — ``(app, scale)`` plus a GPU
configuration — rather than shipping trace bytes: trace generation is
deterministic in (app, scale), so the server regenerates the trace and
derives the content-addressed identity ``(trace_hash, config_hash,
simulator)`` itself.  Clients may pin ``trace_hash``/``config_hash``
they computed locally; the server refuses the job if they disagree
(a client-side/server-side drift is a bug, not a cache miss).

The tagging contract: every response carries ``degraded`` (boolean).
Exact answers say ``degraded: false``; analytic-tier fallbacks say
``degraded: true`` **and** carry ``error_bound_pct`` /
``error_mean_pct`` so no caller can mistake an approximation for a
simulation.  Degraded answers are never cached (``repro.serve.store``
enforces this independently).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ServeError

#: Documented accuracy envelope of the analytic fallback tier versus
#: swift-basic (docs/analytic-tier.md): ~20-25% mean divergence across
#: the workload suite, worst case near 50% (gemm).
ANALYTIC_ERROR_BOUND_PCT = 50.0
ANALYTIC_ERROR_MEAN_PCT = 25.0

#: Simulator used by the degraded tier.
DEGRADED_SIMULATOR = "swift-analytic"


@dataclass(frozen=True)
class JobRequest:
    """One submitted job, parsed and validated from the wire form."""

    app: str
    scale: str
    simulator: str
    config: Optional[Dict] = None  # gpu_config_to_dict form; None = preset
    gpu: str = "rtx2080ti"         # preset key used when config is None
    deadline_seconds: Optional[float] = None
    allow_degraded: bool = True
    trace_hash: str = ""           # optional client-side pins, verified
    config_hash: str = ""

    @classmethod
    def from_dict(cls, payload: Dict) -> "JobRequest":
        if not isinstance(payload, dict):
            raise ServeError("job request must be a JSON object")
        app = payload.get("app", "")
        simulator = payload.get("simulator", "")
        if not app or not isinstance(app, str):
            raise ServeError("job request needs a non-empty 'app'")
        if not simulator or not isinstance(simulator, str):
            raise ServeError("job request needs a non-empty 'simulator'")
        config = payload.get("config")
        if config is not None and not isinstance(config, dict):
            raise ServeError("'config' must be a GPU config object")
        deadline = payload.get("deadline_seconds")
        if deadline is not None:
            if not isinstance(deadline, (int, float)) or deadline <= 0:
                raise ServeError(
                    f"'deadline_seconds' must be positive, got {deadline!r}"
                )
            deadline = float(deadline)
        return cls(
            app=app,
            scale=str(payload.get("scale", "tiny")),
            simulator=simulator,
            config=config,
            gpu=str(payload.get("gpu", "rtx2080ti")),
            deadline_seconds=deadline,
            allow_degraded=bool(payload.get("allow_degraded", True)),
            trace_hash=str(payload.get("trace_hash", "")),
            config_hash=str(payload.get("config_hash", "")),
        )

    def to_dict(self) -> Dict:
        payload = {
            "app": self.app,
            "scale": self.scale,
            "simulator": self.simulator,
            "gpu": self.gpu,
            "allow_degraded": self.allow_degraded,
        }
        if self.config is not None:
            payload["config"] = self.config
        if self.deadline_seconds is not None:
            payload["deadline_seconds"] = self.deadline_seconds
        if self.trace_hash:
            payload["trace_hash"] = self.trace_hash
        if self.config_hash:
            payload["config_hash"] = self.config_hash
        return payload


def response_ok(
    key: str,
    result: Dict,
    *,
    cached: bool,
    degraded: bool = False,
) -> Dict:
    """An answer-bearing response, exact or (tagged) degraded."""
    response = {
        "status": "ok",
        "key": key,
        "cached": cached,
        "degraded": degraded,
        "result": result,
    }
    if degraded:
        response["error_bound_pct"] = ANALYTIC_ERROR_BOUND_PCT
        response["error_mean_pct"] = ANALYTIC_ERROR_MEAN_PCT
        response["degraded_simulator"] = DEGRADED_SIMULATOR
    return response


def response_error(kind: str, message: str, *, key: str = "") -> Dict:
    """A typed failure response (load-shed, bad request, exec failure)."""
    response = {
        "status": "error",
        "kind": kind,
        "message": message,
        "degraded": False,
    }
    if key:
        response["key"] = key
    return response
