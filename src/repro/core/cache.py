"""Tiling memoization: skip the DORY search when the answer is known.

The tiling solver (:class:`~repro.dory.tiler.DoryTiler`) is exact and
*deterministic*: its result depends only on

* the layer geometry (a :class:`~repro.dory.layer_spec.LayerSpec`
  minus its constant payloads — weights never influence tile shapes),
* the accelerator target,
* the heuristic set (each ``beta_i * H_i`` term, identified by name,
  weight and scoring function),
* the Eq. 1 ``alpha`` weight and the Eq. 2 ``l1_budget``,
* the digital weight-memory capacity (the only platform constant the
  feasibility check reads besides the L1 budget).

:class:`TilingCache` memoizes ``solve`` on exactly that key, so a warm
compile performs zero searches: identical layers within one model, the
same model re-compiled, and every (model, config) cell of a sweep that
repeats a layer geometry all hit. Infeasible outcomes
(:class:`~repro.errors.TilingError`) are cached too — the Fig. 4
budget sweep spends much of its time re-discovering infeasibility.

The memo lives in the process only: a cold solve is cheap enough that
nothing is persisted across runs. On a hit the
:class:`~repro.dory.tiling_types.TilingSolution` is rebuilt around the
*caller's* spec, so constant payloads are never shared between layers.

The cache is thread-safe (the ``jobs=N`` evaluation fan-out shares
one), and a process-wide default instance is threaded through
:func:`~repro.core.compiler.compile_model` via
``CompilerConfig.tiling_cache``.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence, Tuple

from ..dory.heuristics import Heuristic
from ..dory.layer_spec import LayerSpec
from ..dory.tiler import DoryTiler
from ..dory.tiling_types import TilingSolution
from ..errors import TilingError

#: LayerSpec fields that influence the tiling search. ``name``,
#: ``weight`` and ``bias`` are deliberately excluded: two layers with
#: identical geometry share a tiling regardless of their payloads, which
#: is what makes intra-model hits (e.g. ResNet's repeated blocks) work.
_SPEC_KEY_FIELDS = (
    "kind", "in_channels", "out_channels", "iy", "ix", "oy", "ox",
    "fy", "fx", "strides", "padding", "groups",
    "weight_dtype", "in_dtype", "out_dtype",
)


def spec_key(spec: LayerSpec) -> Tuple:
    """Canonical geometry fingerprint of one layer."""
    return tuple(
        tuple(v) if isinstance(v, (list, tuple)) else v
        for v in (getattr(spec, f) for f in _SPEC_KEY_FIELDS)
    )


def heuristics_key(heuristics: Sequence[Heuristic]) -> Tuple:
    """Identity of a heuristic set: ordered ``(name, weight, fn)`` triples."""
    return tuple((h.name, float(h.weight), h.fn) for h in heuristics)


def tiling_key(tiler: DoryTiler, spec: LayerSpec) -> Tuple:
    """The full memoization key for ``tiler.solve(spec)``."""
    return (
        spec_key(spec),
        tiler.target,
        heuristics_key(tiler.heuristics),
        float(tiler.alpha),
        int(tiler.l1_budget),
        int(tiler.params.dig_weight_bytes),
    )


class TilingCache:
    """Memoizes :meth:`DoryTiler.solve` results, with hit/miss counters."""

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: Dict[Tuple, dict] = {}
        self.hits = 0
        self.misses = 0

    def solve(self, tiler: DoryTiler, spec: LayerSpec) -> TilingSolution:
        """``tiler.solve(spec)``, memoized.

        On a hit the stored tile configuration is re-wrapped around the
        caller's ``spec`` (payloads included); cached infeasibility
        re-raises :class:`TilingError`.
        """
        key = tiling_key(tiler, spec)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
        if entry is not None:
            return self._rebuild(entry, spec, tiler.target)

        try:
            sol = tiler.solve(spec)
        except TilingError:
            with self._lock:
                self.misses += 1
                self._entries[key] = {"infeasible": True}
            raise
        with self._lock:
            self.misses += 1
            self._entries[key] = {
                "cfg": sol.cfg,
                "l1": (sol.l1_in_bytes, sol.l1_out_bytes,
                       sol.l1_weight_bytes),
                "objective": sol.objective,
                "needs_tiling": sol.needs_tiling,
            }
        return sol

    @staticmethod
    def _rebuild(entry: dict, spec: LayerSpec, target: str) -> TilingSolution:
        if entry.get("infeasible"):
            raise TilingError(
                f"{spec.name}: no feasible tiling for target {target} "
                f"(cached infeasibility)")
        in_b, out_b, w_b = entry["l1"]
        return TilingSolution(
            spec=spec, cfg=entry["cfg"], target=target, l1_in_bytes=in_b,
            l1_out_bytes=out_b, l1_weight_bytes=w_b,
            objective=entry["objective"],
            needs_tiling=entry["needs_tiling"],
        )

    # -- bookkeeping -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """``{"hits": ..., "misses": ..., "entries": ...}``."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "entries": len(self._entries)}

    def reset_counters(self):
        with self._lock:
            self.hits = 0
            self.misses = 0

    def clear(self):
        """Drop all entries (counters included)."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


# -- process-wide default ----------------------------------------------------

_default_cache: Optional[TilingCache] = TilingCache()


def get_default_cache() -> Optional[TilingCache]:
    """The cache ``compile_model`` uses by default (None = disabled)."""
    return _default_cache


def set_default_cache(cache: Optional[TilingCache]) -> Optional[TilingCache]:
    """Swap the process-wide cache (pass None to disable); returns it."""
    global _default_cache
    _default_cache = cache
    return cache
