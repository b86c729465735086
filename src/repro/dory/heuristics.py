"""Accelerator-aware tiling heuristics (paper Eqs. 3-5).

DORY's tiler maximizes ``alpha * (L1_w + L1_in + L1_out) + sum_i beta_i * H_i``
(Eq. 1). The ``H_i`` are platform heuristics; for DIANA's digital
accelerator the paper gives:

* ``H_pe_digital_C  = (C_t  - 1) mod 16``   (Eq. 3)
* ``H_pe_digital_ix = (ix_t - 1) mod 16``   (Eq. 4)
* ``H_DMA           = iy_t``                (Eq. 5)

Eqs. 3-4 reward tile sizes that fill all 16 PE rows/columns; Eq. 5
rewards tall input tiles, which need fewer non-contiguous DMA bursts in
the C-y-x activation layout. Each heuristic here is normalized to
[0, 1] so the ``alpha``/``beta`` balance is scale-free.

The solver scores every candidate tile of a layer at once: a heuristic
receives a :class:`~repro.dory.tiling_types.TileConfig` whose fields
are int64 NumPy columns and returns a float64 column (or a scalar that
broadcasts). The same function prices a single config of plain ints,
so heuristics use ``np.minimum`` / ``np.where``, never ``min`` / ``if``
on tile fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .layer_spec import LayerSpec
from .tiling_types import TileConfig


@dataclass(frozen=True)
class Heuristic:
    """One ``beta_i * H_i`` term of the tiling objective.

    ``fn(spec, cfg)`` must be array-polymorphic: the solver calls it
    with a ``cfg`` whose ``c_t`` / ``k_t`` / ``oy_t`` / ``ox_t`` are
    int64 columns of candidate tiles and expects one score per row
    (see the module docstring). Tiling memoization keys on ``fn``
    itself, so two heuristics differing only in ``fn`` never share a
    cached solution.
    """

    name: str
    weight: float
    fn: Callable[[LayerSpec, TileConfig], float]

    def __call__(self, spec: LayerSpec, cfg: TileConfig) -> float:
        return self.weight * self.fn(spec, cfg)


def _mod16_score(value):
    """Normalized ``(value - 1) mod 16``: 1.0 iff value is a multiple of 16."""
    return ((value - 1) % 16) / 15.0


def _h_pe_c(spec: LayerSpec, cfg: TileConfig) -> float:
    """Eq. 3: input-channel tile fills the 16 PE rows."""
    return _mod16_score(cfg.c_t)


def _h_pe_ix(spec: LayerSpec, cfg: TileConfig) -> float:
    """Eq. 4: input-width tile fills the 16 PE columns.

    The input-width tile is clipped to the tensor width (edge tiles
    fetch no halo beyond the feature map), so full-width tiles of a
    16-multiple-wide layer score maximally — and they are also the
    contiguous-DMA-friendly choice in the C-y-x layout.

    For FC layers (no spatial dims) the array unrolls C and K, so the
    output-channel tile plays the role of the second spatial dimension.
    """
    if spec.kind == "dense":
        return _mod16_score(cfg.k_t)
    ix_t = np.minimum((cfg.ox_t - 1) * spec.strides[1] + spec.fx, spec.ix)
    return _mod16_score(ix_t)


def _h_dma(spec: LayerSpec, cfg: TileConfig) -> float:
    """Eq. 5: maximize the input-height tile (contiguous DMA bursts).

    The paper states the heuristic as ``H_DMA = i_y^t``. Taken alone
    that would reward trading output channels for rows, which *adds*
    DMA traffic (the input slab is re-fetched once per output-channel
    block). We therefore score the input rows streamed *per weight
    residency*, ``(iy_t / iy) * (k_t / K)`` — maximal exactly when one
    tall tile covers all output channels, which is the configuration
    the paper's formulation assumes.
    """
    if spec.kind == "dense":
        return cfg.k_t / max(spec.out_channels, 1)
    return ((cfg.oy_t / max(spec.oy, 1))
            * (cfg.k_t / max(spec.out_channels, 1)))


def _h_analog_unroll(spec: LayerSpec, cfg: TileConfig) -> float:
    """Analog: "spatially unroll C and K as much as possible"."""
    rows = cfg.c_t * spec.fy * spec.fx if spec.kind != "dense" else cfg.c_t
    cols = cfg.k_t
    return np.minimum(rows / 1152.0, 1.0) * np.minimum(cols / 512.0, 1.0)


#: default betas: DORY's alpha/beta "control the balance between
#: maximizing memory utilization and maximizing platform-specific
#: heuristics" (paper Sec. III-B). The PE-utilization terms (Eqs. 3-4)
#: are strong tie-breakers around the memory optimum; the DMA term
#: (Eq. 5) is a weak tie-breaker so it never trades away utilization.
DEFAULT_BETA_PE = 0.25
DEFAULT_BETA_DMA = 0.05


def digital_heuristics(beta_pe: float = DEFAULT_BETA_PE,
                       beta_dma: float = DEFAULT_BETA_DMA) -> List[Heuristic]:
    """The full DIANA digital heuristic set (Eqs. 3, 4, 5)."""
    return [
        Heuristic("H_pe_digital_C", beta_pe, _h_pe_c),
        Heuristic("H_pe_digital_ix", beta_pe, _h_pe_ix),
        Heuristic("H_DMA", beta_dma, _h_dma),
    ]


def digital_pe_only_heuristics(beta_pe: float = DEFAULT_BETA_PE) -> List[Heuristic]:
    """Only Eqs. 3-4 — the middle curve ("square markers") of Fig. 4."""
    return [
        Heuristic("H_pe_digital_C", beta_pe, _h_pe_c),
        Heuristic("H_pe_digital_ix", beta_pe, _h_pe_ix),
    ]


def analog_heuristics(beta: float = 1.0) -> List[Heuristic]:
    """DIANA analog heuristic: maximize macro row/column utilization."""
    return [Heuristic("H_analog_unroll", beta, _h_analog_unroll)]


def no_heuristics() -> List[Heuristic]:
    """The hardware-agnostic baseline ("only tile size", Fig. 4)."""
    return []


def heuristic_set_for(kind: str, target: str) -> List[Heuristic]:
    """The heuristic set one ``CompilerConfig.heuristics`` kind implies.

    Shared by the compiler driver and the mapping engine so candidate
    costing solves exactly the tiling a subsequent compile would (same
    cache key, same solution).
    """
    if target == "soc.analog":
        return analog_heuristics() if kind != "none" else no_heuristics()
    if kind == "full":
        return digital_heuristics()
    if kind == "pe-only":
        return digital_pe_only_heuristics()
    if kind == "none":
        return no_heuristics()
    from ..errors import CodegenError
    raise CodegenError(f"unknown heuristic set {kind!r}")
