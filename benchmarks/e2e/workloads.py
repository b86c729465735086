"""The four deployments the benchmark runs (one MLPerf Tiny model each).

Each workload pins a model, a platform, a compile configuration, an
execution mode and a serving tier with its closed-loop traffic. They
differ on purpose in *which layer does most of the work* — README.md
has the full rationale and the predicted moves per layer.
"""

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    model: str                 #: key of the MLPerf Tiny zoo
    platform: str              #: registered platform (fixes the precision)
    precision: str             #: zoo precision variant of that platform
    exec_mode: str             #: executor mode, direct and served
    tier: str                  #: "fleet" (processes) or "server" (threads)
    clients: int               #: closed-loop client threads
    burst: int = 1             #: requests a client keeps outstanding
    overrides: Dict[str, object] = field(default_factory=dict)  #: on HTVM
    max_batch_size: int = 1    #: InferenceServer batcher knobs
    max_wait_ms: float = 0.0

    @property
    def l1_budget_kb(self) -> Optional[int]:
        budget = self.overrides.get("l1_budget")
        return None if budget is None else int(budget) // 1024


WORKLOADS: Tuple[Workload, ...] = (
    # request waterfall: tiler-bound cold compile (16 kB L1 forces real
    # tiling), fleet pump/pipe/process hand-off around a short inference
    Workload("resnet8-digital-fleet", model="resnet",
             platform="diana-noanalog", precision="int8", exec_mode="fast",
             tier="fleet", clients=2,
             overrides={"l1_budget": 16 * 1024}),
    # glue-bound: ~0.2 ms kernels, the only traffic that coalesces in
    # DynamicBatcher and runs through Executor.run_batch
    Workload("toyadmos-digital-batched", model="toyadmos",
             platform="diana-noanalog", precision="int8", exec_mode="fast",
             tier="server", clients=2, burst=16,
             max_batch_size=32, max_wait_ms=2.0),
    # kernel-bound: the paper's tile-by-tile verification schedule and
    # the cost-driven mapping search
    Workload("mobilenet-mixed-verify", model="mobilenet",
             platform="diana", precision="mixed", exec_mode="tiled",
             tier="server", clients=1,
             overrides={"mapping_strategy": "dp"}),
    # the generated C: codegen.native + codegen.build, per-step FFI,
    # two clients queueing on one batcher thread
    Workload("dscnn-mixed-native", model="dscnn",
             platform="diana", precision="mixed", exec_mode="native",
             tier="server", clients=2),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: feeds a run rotates through (generated from --seed)
N_FEEDS = 8
#: Executor.run_batch batch size
BATCH = 8
#: DSE sweep axes: this workload's platform x model x these
DSE_BUDGETS_KB = (16, 64, 256)
DSE_OBJECTIVES = ("latency", "energy")
