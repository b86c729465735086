"""Serving subsystem: compiled-artifact store + two serving tiers.

Splits deployment into *compile once* (``pack_model`` /
``save_artifact`` produce a self-contained versioned ``.dna`` file)
and *serve many*:

* :class:`InferenceServer` — in-process, thread-based, per-model
  dynamic batching (low overhead, shared fate);
* :class:`ServingFleet` — supervised multi-process worker pool with
  admission control, deadlines, retries, circuit breaking and chaos
  testing (``serve.faults``) for deployment-grade robustness.

Both tiers' ``submit`` return the same :class:`InferenceFuture`.

See ``docs/SERVING.md`` and ``docs/RESILIENCE.md``.
"""

from .artifact import (
    ARTIFACT_MAGIC, ARTIFACT_VERSION, LoadedArtifact, artifact_from_dict,
    artifact_to_dict, load_artifact, pack_model, save_artifact,
)
from .batcher import BatcherStats, DrainReport, DynamicBatcher, InferenceFuture
from .faults import FAULT_KINDS, FaultInjector, FaultPlan, FaultRule, \
    corrupt_artifact
from .fleet import FleetConfig, ServingFleet
from .resilience import (
    BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN, CircuitBreaker,
    CrashLoopBackoff, RetryPolicy,
)
from .server import InferenceServer, ServerConfig

__all__ = [
    "ARTIFACT_MAGIC", "ARTIFACT_VERSION", "LoadedArtifact",
    "artifact_from_dict", "artifact_to_dict", "load_artifact",
    "pack_model", "save_artifact",
    "BatcherStats", "DrainReport", "DynamicBatcher", "InferenceFuture",
    "InferenceServer", "ServerConfig",
    "FleetConfig", "ServingFleet",
    "FaultPlan", "FaultRule", "FaultInjector", "FAULT_KINDS",
    "corrupt_artifact",
    "RetryPolicy", "CircuitBreaker", "CrashLoopBackoff",
    "BREAKER_CLOSED", "BREAKER_OPEN", "BREAKER_HALF_OPEN",
]
