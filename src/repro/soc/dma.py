"""DMA event counts for L2 <-> L1 / weight-memory transfers.

DIANA moves activation tiles and weights with a uDMA engine programmed
by the RISC-V host. A transfer of a sub-tensor is a sequence of 1D
bursts — one per contiguous chunk — so *strided* tiles (inner dimensions
narrower than the full tensor) cost extra per-chunk descriptor cycles.
This is the mechanism behind the paper's Eq. (5) heuristic ("minimize
non-contiguous input data transfers ... maximize the i_y dimension"):
tiles that keep the innermost dimensions whole need fewer chunks.
This module counts jobs, chunks and bytes; :mod:`repro.runtime.cost`
prices them.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple


def contiguous_chunks(tensor_shape: Sequence[int],
                      tile_shape: Sequence[int]) -> int:
    """Number of contiguous 1D bursts needed to move a tile.

    The tile is an axis-aligned slice of a row-major tensor. Trailing
    dimensions that are copied whole merge into the burst; the first
    (innermost-to-outermost scan) dimension that is only partially
    covered splits the transfer into one burst per index of all outer
    dimensions.
    """
    if len(tensor_shape) != len(tile_shape):
        raise ValueError("tensor/tile rank mismatch")
    chunks, merged = 1, True
    for full, tile in zip(reversed(tensor_shape), reversed(tile_shape)):
        if tile > full:
            raise ValueError(f"tile dim {tile} exceeds tensor dim {full}")
        if not merged:  # outer dims multiply the bursts
            chunks *= tile
        merged = merged and tile == full
    return chunks


def tile_transfer_counts(tensor_shape: Sequence[int],
                         tile_shape: Sequence[int]) -> Tuple[int, int, int]:
    """``(jobs, chunks, bytes)`` of one DMA of an int8 activation tile.

    The tile moves between L2 and the shared L1 in one job of
    :func:`contiguous_chunks` bursts; an empty tile (a slab that is all
    zero border) moves nothing and programs no job.
    """
    num = math.prod(tile_shape)
    if num <= 0:
        return 0, 0, 0
    return 1, contiguous_chunks(tensor_shape, tile_shape), num


def cross_core_transfer_counts(num_bytes: int, src: str,
                               dst: str) -> Dict[str, int]:
    """Events of handing one activation tensor from ``src`` to ``dst``.

    The mapping engine charges them as the inter-layer penalty of a
    heterogeneous assignment. A layer boundary that crosses cores
    stages the tensor through L2 in DMA jobs nothing hides — one leg
    between the CPU (which reads and writes L2 directly) and an
    accelerator, two (drain + refill) between accelerators — plus a
    per-element layout repacking pass on the host (the digital core
    consumes C-y-x activations, the analog macro and the CPU kernels
    expect their own layouts). A same-core hand-off is free.
    """
    if src == dst or num_bytes <= 0:
        return {}
    legs = 1 if "cpu" in (src, dst) else 2
    return {"act_job": legs, "act_byte": legs * num_bytes,
            "cpu_elem_copy": num_bytes}
