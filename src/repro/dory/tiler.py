"""DORY's tiling solver (paper Sec. III-B, Eqs. 1-2).

The solver picks tile sizes that maximize

    alpha * (L1_weight + L1_in + L1_out)  +  sum_i beta_i * H_i     (Eq. 1)

subject to

    L1_weight + L1_in + L1_out  <=  L1 budget                      (Eq. 2)

plus the digital accelerator's private weight-memory capacity. The
``H_i`` come from :mod:`repro.dory.heuristics`; with an empty heuristic
list the solver degrades to the hardware-agnostic "only tile size"
baseline of Fig. 4.

DORY formulates this as constraint programming. Here the search is
array-shaped: the candidate grid ``(c_t, k_t, oy_t)`` is a set of NumPy
int64 columns, Eq. 2 is priced over the whole grid at once by the same
:func:`_l1_bytes` that prices a single :class:`TileConfig`, the maximal
feasible ``oy_t`` per channel pair is a max along the ``oy_t`` axis, and
Eq. 1 plus the tile counts are scored as columns. Only the tie-break
(first-seen best, then fewest tiles, within ``1e-12``) is a Python loop,
because that rule depends on the order of the scan.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional, Sequence

import numpy as np

from ..errors import TilingError
from ..soc.params import DianaParams
from .heuristics import Heuristic
from .layer_spec import LayerSpec
from .tiling_types import TileConfig, TilingSolution


def _candidates(limit: int, include_all_up_to: int = 0) -> np.ndarray:
    """Candidate tile sizes for a dimension of size ``limit``, ascending.

    Divisors (perfectly even tilings), multiples of 8 (PE-friendly
    sizes) and the full size. ``include_all_up_to`` additionally adds
    every value up to ``min(limit, include_all_up_to)`` so the baseline
    objective can find its (possibly hardware-hostile) memory optimum.
    """
    cands = {limit}
    for d in range(1, int(math.sqrt(limit)) + 1):
        if limit % d == 0:
            cands.add(d)
            cands.add(limit // d)
    cands.update(range(8, limit + 1, 8))
    cands.update(range(1, min(limit, include_all_up_to) + 1))
    return np.array(sorted(cands), dtype=np.int64)


def _l1_bytes(spec: LayerSpec, cfg: TileConfig, target: str,
              payload_only: bool = False) -> tuple:
    """(in, out, weight) L1 bytes for the nominal tile (Eq. 2 LHS).

    ``cfg``'s fields may be ints or broadcastable int64 columns; the
    result has the matching shape.

    With ``payload_only`` the int32 partial-sum inflation of a C-tiled
    convolution is ignored: the Eq. 1 *objective* rewards memory spent
    on useful payload, while Eq. 2 *feasibility* must account for the
    physical 4-byte accumulator tile.
    """
    iy_t, ix_t = spec.input_tile_hw(cfg.oy_t, cfg.ox_t)
    iy_t, ix_t = np.minimum(iy_t, spec.iy), np.minimum(ix_t, spec.ix)
    if spec.kind == "dense":
        in_b = cfg.c_t
        out_b = cfg.k_t
        w_b = cfg.k_t * cfg.c_t
    elif spec.kind == "add":
        in_b = 2 * cfg.c_t * cfg.oy_t * cfg.ox_t
        out_b = cfg.c_t * cfg.oy_t * cfg.ox_t
        w_b = 0
    elif spec.kind == "dwconv2d":
        in_b = cfg.c_t * iy_t * ix_t
        out_b = cfg.c_t * cfg.oy_t * cfg.ox_t
        w_b = cfg.c_t * spec.fy * spec.fx
    else:  # conv2d
        in_b = cfg.c_t * iy_t * ix_t
        # a C-tiled conv accumulates int32 partial sums in L1
        out_elem = 1 if payload_only else np.where(
            cfg.c_t < spec.in_channels, 4, 1)
        out_b = cfg.k_t * cfg.oy_t * cfg.ox_t * out_elem
        w_b = cfg.k_t * cfg.c_t * spec.fy * spec.fx
    if target == "soc.analog":
        # ternary weights live inside the IMC macro, not in L1
        w_b = 0
    return in_b, out_b, w_b


#: grid cells (channel pairs x oy_t values) priced per NumPy pass: one
#: pass covers every MLPerf Tiny layer, larger layers are chunked
_GRID_CELLS = 1 << 16


def _full_config(spec: LayerSpec) -> TileConfig:
    return TileConfig(c_t=spec.in_channels, k_t=spec.out_channels,
                      oy_t=spec.oy, ox_t=spec.ox)


class DoryTiler:
    """Tiling solver bound to one accelerator target.

    Args:
        target: ``"soc.digital"``, ``"soc.analog"`` or a registered
            plugin accelerator; every target but the analog one keeps
            weights in L1 and is tiled over C, K and rows.
        params: platform constants.
        heuristics: the ``beta_i * H_i`` terms; empty list = baseline.
        alpha: weight of the memory-utilization term of Eq. 1 (finite).
        l1_budget: Eq. 2 right-hand side, a positive integer; defaults
            to the platform's 256 kB shared L1 (Fig. 4 sweeps this
            downward).

    Raises:
        ValueError: on a non-finite ``alpha`` or an ``l1_budget`` that
            is a bool, not an integer, or not positive.
    """

    def __init__(self, target: str, params: DianaParams,
                 heuristics: Sequence[Heuristic],
                 alpha: float = 1.0,
                 l1_budget: Optional[int] = None):
        if not math.isfinite(alpha):
            raise ValueError(f"alpha must be finite, got {alpha!r}")
        if l1_budget is not None and (
                isinstance(l1_budget, bool)
                or not isinstance(l1_budget, numbers.Integral)
                or l1_budget <= 0):
            raise ValueError(
                f"l1_budget must be a positive integer, got {l1_budget!r}")
        self.target = target
        self.params = params
        self.heuristics = list(heuristics)
        self.alpha = alpha
        self.l1_budget = params.l1_bytes if l1_budget is None else int(l1_budget)

    # -- Eq. 2 and Eq. 1, on one config or on columns ------------------------

    def _feasible(self, spec: LayerSpec, cfg: TileConfig):
        """Eq. 2 plus the digital weight-memory capacity."""
        in_b, out_b, w_b = _l1_bytes(spec, cfg, self.target)
        ok = in_b + out_b + w_b <= self.l1_budget
        if self.target == "soc.digital":
            ok = ok & (w_b <= self.params.dig_weight_bytes)
        return ok

    def _objective(self, spec: LayerSpec, cfg: TileConfig):
        in_b, out_b, w_b = _l1_bytes(spec, cfg, self.target,
                                     payload_only=True)
        score = self.alpha * (in_b + out_b + w_b) / self.l1_budget
        for h in self.heuristics:
            score = score + h(spec, cfg)
        return score

    # -- search -------------------------------------------------------------

    def solve(self, spec: LayerSpec) -> TilingSolution:
        """Find the best feasible tiling for ``spec``.

        Raises:
            TilingError: if even the minimal tile violates the budget.
        """
        full = _full_config(spec)
        if self._feasible(spec, full):
            return self._solution(spec, full,
                                  float(self._objective(spec, full)),
                                  needs_tiling=False)

        cols = self._candidate_columns(spec)
        scores = self._objective(spec, cols).tolist()
        tiles = cols.num_tiles(spec).tolist()
        best: Optional[int] = None
        best_score, best_tiles = float("-inf"), 0
        for i, (score, num) in enumerate(zip(scores, tiles)):
            if score > best_score + 1e-12 or (
                    abs(score - best_score) <= 1e-12 and best is not None
                    and num < best_tiles):
                best, best_score, best_tiles = i, score, num

        if best is None:
            raise TilingError(
                f"{spec.name}: no feasible tiling for target {self.target} "
                f"within L1 budget {self.l1_budget} B"
            )
        cfg = TileConfig(c_t=int(cols.c_t[best]), k_t=int(cols.k_t[best]),
                         oy_t=int(cols.oy_t[best]), ox_t=spec.ox)
        return self._solution(spec, cfg, best_score, needs_tiling=True)

    def _solution(self, spec: LayerSpec, cfg: TileConfig, objective: float,
                  needs_tiling: bool) -> TilingSolution:
        in_b, out_b, w_b = _l1_bytes(spec, cfg, self.target)
        return TilingSolution(
            spec=spec, cfg=cfg, target=self.target,
            l1_in_bytes=int(in_b), l1_out_bytes=int(out_b),
            l1_weight_bytes=int(w_b), objective=objective,
            needs_tiling=needs_tiling,
        )

    def _max_oy(self, spec: LayerSpec, c_t: np.ndarray,
                k_t: np.ndarray) -> np.ndarray:
        """Largest feasible oy_t per (c_t, k_t) pair, 0 where none is.

        Eq. 2 is priced over a trailing ``oy_t`` axis and reduced along
        it. L1 use grows with ``oy_t``, so the feasible values form a
        prefix of that axis and its maximum is the prefix's end. The
        pairs are priced in chunks of at most ``_GRID_CELLS`` grid cells,
        so peak memory stays flat however large the layer is.
        """
        c_t, k_t = np.broadcast_arrays(c_t, k_t)
        c, k = c_t.ravel(), k_t.ravel()
        oy = np.arange(1, spec.oy + 1, dtype=np.int64)
        step = max(1, _GRID_CELLS // oy.size)
        out = np.empty(c.size, dtype=np.int64)
        for lo in range(0, c.size, step):
            grid = TileConfig(c_t=c[lo:lo + step, None],
                              k_t=k[lo:lo + step, None],
                              oy_t=oy, ox_t=spec.ox)
            out[lo:lo + step] = np.where(self._feasible(spec, grid),
                                         oy, 0).max(axis=-1)
        return out.reshape(c_t.shape)

    def _candidate_columns(self, spec: LayerSpec) -> TileConfig:
        """Candidate tiles as int64 columns, in the tie-break scan order.

        Every candidate is feasible, and per channel tile only the
        maximal feasible ``oy_t`` is kept: L1 bytes, the memory term and
        the Eq. 5 H_DMA all grow with ``oy_t`` while the PE heuristics
        ignore it, so a shorter row tile can never be optimal. The width
        is never tiled (contiguous DMA), so ``ox_t`` is the layer width.
        """
        if spec.kind == "conv2d" and self.target != "soc.analog":
            return self._conv_columns(spec)
        if spec.kind == "dense":
            k = _candidates(spec.out_channels, include_all_up_to=64)
            c = np.full_like(k, spec.in_channels)
        elif spec.kind == "conv2d":
            # analog: weights sit in the macro; only rows are tiled
            c = np.array([spec.in_channels], dtype=np.int64)
            k = np.array([spec.out_channels], dtype=np.int64)
        else:  # add / dwconv2d: one channel tile for input and output
            cap = 32 if spec.kind == "dwconv2d" else 0
            c = k = _candidates(spec.in_channels, include_all_up_to=cap)
        oy = self._max_oy(spec, c, k)
        ok = oy > 0
        return TileConfig(c_t=c[ok], k_t=k[ok], oy_t=oy[ok], ox_t=spec.ox)

    def _conv_columns(self, spec: LayerSpec) -> TileConfig:
        """The (c_t, k_t, max oy_t) grid for a conv2d with L1 weights.

        DORY tiles K, C (int32 partial sums) and the output height.
        Every feasible pair is a candidate. The first-seen / fewest-tiles
        tie-break depends on the scan order, which is c-outer, or
        k-outer with ``alpha <= 0``, where without the memory term
        exact ties between pairs are common.
        """
        c = _candidates(spec.in_channels, include_all_up_to=32)
        k = _candidates(spec.out_channels, include_all_up_to=32)
        oy = self._max_oy(spec, c[:, None], k[None, :])
        if self.alpha <= 0:
            ki, ci = np.nonzero(oy.T > 0)
        else:
            ci, ki = np.nonzero(oy > 0)
        return TileConfig(c_t=c[ci], k_t=k[ki], oy_t=oy[ci, ki],
                          ox_t=spec.ox)
