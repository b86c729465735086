"""BYOC DORY backend: layer analysis, tiling, memory planning, codegen."""

from .codegen import emit_accel_layer
from .heuristics import (
    Heuristic, analog_heuristics, digital_heuristics,
    digital_pe_only_heuristics, no_heuristics,
)
from .layer_spec import (
    LayerSpec, make_conv_spec, make_dense_spec, spec_from_composite,
)
from .memory_plan import MemoryPlan, TensorLife, lifetimes_from_steps, plan_memory
from .tiler import DoryTiler
from .weights import (
    fits_weight_memory, l1_weight_bytes, l2_weight_bytes, macro_rows,
)
from .tiling_types import Tile, TileConfig, TilingSolution, tiles_of

__all__ = [
    "emit_accel_layer", "Heuristic", "analog_heuristics",
    "digital_heuristics", "digital_pe_only_heuristics", "no_heuristics",
    "LayerSpec", "make_conv_spec", "make_dense_spec", "spec_from_composite",
    "MemoryPlan", "TensorLife", "lifetimes_from_steps", "plan_memory",
    "DoryTiler", "Tile", "TileConfig", "TilingSolution", "tiles_of",
    "fits_weight_memory", "l1_weight_bytes", "l2_weight_bytes", "macro_rows",
]
