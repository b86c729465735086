"""The array-shaped DORY tiler against the scalar search it replaced.

``ScalarDoryTiler`` below is the previous solver, kept verbatim as a
test oracle: per (c_t, k_t) it binary-searches the maximal feasible
``oy_t`` one ``TileConfig`` at a time and walks hand-pruned candidate
generators. :class:`repro.dory.DoryTiler` must pick the same tile with
the same L1 accounting and the bit-identical objective on every layer
kind, target, budget, heuristic set and ``alpha``, and must fail with
the same :class:`TilingError` where nothing fits.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from hypothesis import example, given, settings, strategies as st

from repro.dory import (
    DoryTiler, LayerSpec, analog_heuristics, digital_heuristics,
    digital_pe_only_heuristics, make_conv_spec, make_dense_spec,
    no_heuristics,
)
from repro.dory.heuristics import Heuristic
from repro.dory.tiling_types import TileConfig, TilingSolution
from repro.errors import TilingError
from repro.soc import DEFAULT_PARAMS
from repro.soc.params import DianaParams


# -- the oracle: the scalar solver, verbatim ---------------------------------

def _candidates(limit: int, include_all_up_to: int = 0) -> List[int]:
    """Candidate tile sizes for a dimension of size ``limit``.

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
    return sorted(cands)


def _l1_bytes(spec: LayerSpec, cfg: TileConfig, target: str,
              payload_only: bool = False) -> tuple:
    """(in, out, weight) L1 bytes for the nominal tile (Eq. 2 LHS).

    With ``payload_only`` the int32 partial-sum inflation of a C-tiled
    convolution is ignored: the Eq. 1 *objective* rewards memory spent
    on useful payload, while Eq. 2 *feasibility* must account for the
    physical 4-byte accumulator tile.
    """
    iy_t, ix_t = spec.input_tile_hw(cfg.oy_t, cfg.ox_t)
    iy_t, ix_t = min(iy_t, spec.iy), min(ix_t, spec.ix)
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
        out_elem = 1 if payload_only else (
            4 if cfg.c_t < spec.in_channels else 1)
        out_b = cfg.k_t * cfg.oy_t * cfg.ox_t * out_elem
        w_b = cfg.k_t * cfg.c_t * spec.fy * spec.fx
    if target == "soc.analog":
        # ternary weights live inside the IMC macro, not in L1
        w_b = 0
    return in_b, out_b, w_b


def _full_config(spec: LayerSpec) -> TileConfig:
    return TileConfig(c_t=spec.in_channels, k_t=spec.out_channels,
                      oy_t=spec.oy, ox_t=spec.ox)


class ScalarDoryTiler:
    """Tiling solver bound to one accelerator target.

    Args:
        target: ``"soc.digital"`` or ``"soc.analog"``.
        params: platform constants.
        heuristics: the ``beta_i * H_i`` terms; empty list = baseline.
        alpha: weight of the memory-utilization term of Eq. 1.
        l1_budget: Eq. 2 right-hand side; defaults to the platform's
            256 kB shared L1 (Fig. 4 sweeps this downward).
    """

    def __init__(self, target: str, params: DianaParams,
                 heuristics: Sequence[Heuristic],
                 alpha: float = 1.0,
                 l1_budget: Optional[int] = None):
        self.target = target
        self.params = params
        self.heuristics = list(heuristics)
        self.alpha = alpha
        self.l1_budget = params.l1_bytes if l1_budget is None else int(l1_budget)

    # -- constraints -------------------------------------------------------

    def _weight_budget_ok(self, spec: LayerSpec, cfg: TileConfig) -> bool:
        if self.target != "soc.digital" or spec.kind == "add":
            return True
        if spec.kind == "dense":
            w = cfg.k_t * cfg.c_t
        elif spec.kind == "dwconv2d":
            w = cfg.c_t * spec.fy * spec.fx
        else:
            w = cfg.k_t * cfg.c_t * spec.fy * spec.fx
        return w <= self.params.dig_weight_bytes

    def _feasible(self, spec: LayerSpec, cfg: TileConfig) -> bool:
        in_b, out_b, w_b = _l1_bytes(spec, cfg, self.target)
        if in_b + out_b + w_b > self.l1_budget:
            return False
        return self._weight_budget_ok(spec, cfg)

    # -- objective -----------------------------------------------------------

    def _objective(self, spec: LayerSpec, cfg: TileConfig) -> float:
        in_b, out_b, w_b = _l1_bytes(spec, cfg, self.target,
                                     payload_only=True)
        score = self.alpha * (in_b + out_b + w_b) / self.l1_budget
        for h in self.heuristics:
            score += h(spec, cfg)
        return score

    # -- search -------------------------------------------------------------

    def solve(self, spec: LayerSpec) -> TilingSolution:
        """Find the best feasible tiling for ``spec``.

        Raises:
            TilingError: if even the minimal tile violates the budget.
        """
        full = _full_config(spec)
        if self._feasible(spec, full):
            in_b, out_b, w_b = _l1_bytes(spec, full, self.target)
            return TilingSolution(
                spec=spec, cfg=full, target=self.target,
                l1_in_bytes=in_b, l1_out_bytes=out_b, l1_weight_bytes=w_b,
                objective=self._objective(spec, full), needs_tiling=False,
            )

        best: Optional[TileConfig] = None
        best_score = float("-inf")
        for cfg in self._candidate_configs(spec):
            if not self._feasible(spec, cfg):
                continue
            score = self._objective(spec, cfg)
            if score > best_score + 1e-12 or (
                    abs(score - best_score) <= 1e-12 and best is not None
                    and cfg.num_tiles(spec) < best.num_tiles(spec)):
                best, best_score = cfg, score

        if best is None:
            raise TilingError(
                f"{spec.name}: no feasible tiling for target {self.target} "
                f"within L1 budget {self.l1_budget} B"
            )
        in_b, out_b, w_b = _l1_bytes(spec, best, self.target)
        return TilingSolution(
            spec=spec, cfg=best, target=self.target,
            l1_in_bytes=in_b, l1_out_bytes=out_b, l1_weight_bytes=w_b,
            objective=best_score, needs_tiling=True,
        )

    def _max_feasible_oy(self, spec: LayerSpec, c_t: int, k_t: int,
                         hi: Optional[int] = None) -> Optional[int]:
        """Largest feasible oy_t for fixed channel tiles (binary search).

        L1 bytes are monotone in oy_t, and so is the full objective
        (memory term and the Eq. 5 H_DMA both grow with oy_t while the
        PE heuristics ignore it), so per (c_t, k_t) only the maximal
        feasible oy_t can be optimal.

        ``hi`` caps the search from above: L1 use also grows with
        ``k_t`` (and with ``c_t`` for depthwise/add layers), so the
        max feasible oy_t of a *larger* channel tile can never exceed
        that of a smaller one — callers walking the candidate grid in
        ascending order pass the previous result to shrink the range.
        """
        def make(oy: int) -> TileConfig:
            return TileConfig(c_t=c_t, k_t=k_t, oy_t=oy, ox_t=spec.ox)

        if not self._feasible(spec, make(1)):
            return None
        lo, hi = 1, min(spec.oy, hi if hi is not None else spec.oy)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._feasible(spec, make(mid)):
                lo = mid
            else:
                hi = mid - 1
        return lo

    def _channel_row_configs(self, spec: LayerSpec):
        """(c_t, max oy_t) pairs for depthwise/add layers.

        Feasibility is monotone in c_t for these kinds (every L1 term
        scales with the channel tile), so the previous max oy_t caps
        the next binary search and the first infeasible c_t ends the
        walk.
        """
        cap = 32 if spec.kind == "dwconv2d" else 0
        prev_oy: Optional[int] = None
        for c_t in _candidates(spec.in_channels, include_all_up_to=cap):
            oy = self._max_feasible_oy(spec, c_t, c_t, hi=prev_oy)
            if oy is None:
                break  # larger channel tiles only use more L1
            prev_oy = oy
            yield TileConfig(c_t=c_t, k_t=c_t, oy_t=oy, ox_t=spec.ox)

    def _conv_configs(self, spec: LayerSpec):
        """Pruned (c_t, k_t, max oy_t) grid for digital conv2d.

        Two reductions over the naive k x c product:

        * monotone reuse (always exact): for fixed c_t, L1 use grows
          with k_t, so the max feasible oy_t is non-increasing along
          ascending k_t — the previous result caps the binary search,
          and the first k_t with no feasible row tile ends the k-walk;
        * dominated-pair dedup (``alpha > 0`` only): for fixed c_t the
          memory-payload term grows *strictly* with k_t at equal oy_t
          and the built-in heuristics never decrease in k_t (Eq. 5
          H_DMA grows, Eqs. 3-4 ignore it), so within a plateau of
          equal max-oy the largest k_t strictly dominates — the rest
          of the plateau is never yielded. With ``alpha == 0`` scores
          can tie exactly and the solver's first-seen/fewest-tiles
          tie-break must see every candidate, so the dedup is skipped.
        """
        k_cands = _candidates(spec.out_channels, include_all_up_to=32)
        c_cands = _candidates(spec.in_channels, include_all_up_to=32)
        oy_of = {}
        for c_t in c_cands:
            prev_oy: Optional[int] = None
            for k_t in k_cands:
                oy = self._max_feasible_oy(spec, c_t, k_t, hi=prev_oy)
                if oy is None:
                    break  # larger k tiles only use more L1/weight mem
                prev_oy = oy
                oy_of[c_t, k_t] = oy
        if self.alpha <= 0:
            # every score can tie exactly: the solver's first-seen /
            # fewest-tiles tie-break must see all candidates in the
            # legacy k-outer order to pick identically to the unpruned
            # solver
            for k_t in k_cands:
                for c_t in c_cands:
                    oy = oy_of.get((c_t, k_t))
                    if oy is not None:
                        yield TileConfig(c_t=c_t, k_t=k_t, oy_t=oy,
                                         ox_t=spec.ox)
            return
        for c_t in c_cands:
            plateau: Optional[TileConfig] = None
            for k_t in k_cands:
                oy = oy_of.get((c_t, k_t))
                if oy is None:
                    break
                if plateau is not None and plateau.oy_t != oy:
                    yield plateau
                plateau = TileConfig(c_t=c_t, k_t=k_t, oy_t=oy, ox_t=spec.ox)
            if plateau is not None:
                yield plateau

    def _candidate_configs(self, spec: LayerSpec):
        """Candidate tile configurations for the layer kind."""
        if spec.kind == "dense":
            # feasibility (L1 + weight memory) is monotone in k_t: stop
            # at the first infeasible candidate.
            for k_t in _candidates(spec.out_channels, include_all_up_to=64):
                cfg = TileConfig(c_t=spec.in_channels, k_t=k_t)
                if not self._feasible(spec, cfg):
                    break
                yield cfg
            return
        if spec.kind in ("add", "dwconv2d"):
            yield from self._channel_row_configs(spec)
            return
        if self.target == "soc.analog":
            # weights sit in the macro; only row tiling is needed.
            oy = self._max_feasible_oy(spec, spec.in_channels,
                                       spec.out_channels)
            if oy is not None:
                yield TileConfig(c_t=spec.in_channels,
                                 k_t=spec.out_channels, oy_t=oy,
                                 ox_t=spec.ox)
            return
        # conv2d on digital: DORY tiles K, C (int32 partial sums) and
        # the output height; the width is never tiled (contiguous DMA).
        yield from self._conv_configs(spec)


# -- the property ------------------------------------------------------------

HEURISTIC_SETS = {
    "full": digital_heuristics,
    "pe-only": digital_pe_only_heuristics,
    "none": no_heuristics,
    "analog": analog_heuristics,
}


@st.composite
def layer_specs(draw):
    """Random geometry of every layer kind the solver tiles."""
    kind = draw(st.sampled_from(["conv2d", "dwconv2d", "dense", "add"]))
    if kind == "dense":
        return make_dense_spec("fc", draw(st.integers(1, 1024)),
                               draw(st.integers(1, 512)))
    c = draw(st.integers(1, 96))
    hw = draw(st.integers(1, 40))
    if kind == "add":
        return LayerSpec(name="add", kind="add", in_channels=c,
                         out_channels=c, iy=hw, ix=hw, oy=hw, ox=hw)
    f = draw(st.sampled_from([1, 3, 5]).filter(lambda f: f <= hw))
    s = draw(st.sampled_from([1, 2]))
    pad = draw(st.integers(0, f // 2))
    return make_conv_spec(
        "conv", c, draw(st.integers(1, 96)), hw, hw, fy=f, fx=f,
        strides=(s, s), padding=(pad, pad), depthwise=kind == "dwconv2d")


def _outcome(tiler, spec):
    try:
        return tiler.solve(spec)
    except TilingError as exc:
        return str(exc)


#: the two DIANA accelerators plus a plugin target, which keeps weights
#: in L1 like the digital one but has no private weight-memory cap
TARGETS = ["soc.digital", "soc.analog", "soc.bignpu"]

#: 1 kB to 256 kB, half the draws under 16 kB where most layers tile
budgets = st.one_of(st.integers(1024, 16 * 1024),
                    st.integers(1024, 256 * 1024))


@settings(max_examples=500, deadline=None)
@given(spec=layer_specs(),
       target=st.sampled_from(TARGETS),
       budget=budgets,
       heuristics=st.sampled_from(sorted(HEURISTIC_SETS)),
       alpha=st.sampled_from([0, 0.5, 1]))
@example(spec=make_conv_spec("c", 16, 16, 32, 32, padding=(1, 1)),
         target="soc.digital", budget=16 * 1024, heuristics="full", alpha=1)
@example(spec=make_conv_spec("c", 64, 128, 32, 32, padding=(1, 1)),
         target="soc.digital", budget=4 * 1024, heuristics="none", alpha=0)
@example(spec=make_conv_spec("c", 64, 64, 32, 32, padding=(1, 1)),
         target="soc.digital", budget=1024, heuristics="pe-only", alpha=0.5)
@example(spec=make_conv_spec("c", 64, 64, 8, 8, padding=(1, 1)),
         target="soc.bignpu", budget=32 * 1024, heuristics="full", alpha=1)
def test_array_solver_matches_scalar_oracle(spec, target, budget, heuristics,
                                            alpha):
    args = (target, DEFAULT_PARAMS, HEURISTIC_SETS[heuristics]())
    got = _outcome(DoryTiler(*args, alpha=alpha, l1_budget=budget), spec)
    want = _outcome(ScalarDoryTiler(*args, alpha=alpha, l1_budget=budget),
                    spec)
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, TilingSolution)
    assert got.cfg == want.cfg
    assert (got.l1_in_bytes, got.l1_out_bytes, got.l1_weight_bytes) == \
        (want.l1_in_bytes, want.l1_out_bytes, want.l1_weight_bytes)
    assert type(got.objective) is float
    assert got.objective == want.objective
    assert got.needs_tiling == want.needs_tiling
