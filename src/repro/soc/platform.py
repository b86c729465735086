"""The generic heterogeneous platform model.

:class:`Platform` is the object the compiler (capability queries,
cost-aware tiling), the mapping engine (candidate pricing) and the
runtime executor (functional simulation with cycle accounting) all
receive. It is deliberately small: calibration constants live in
:class:`~repro.soc.params.DianaParams`, per-accelerator behavior lives
in the accelerator models, and *which* accelerators a platform carries
is decided by the :mod:`~repro.soc.registry` from a declarative
:class:`~repro.soc.registry.PlatformSpec`.

The paper's generality claim (Sec. III-C) — "to support a specific
heterogeneous platform, the user has to provide to HTVM only three
components: (1) the hardware specifications ..., (2) the heuristics
..., and (3) the platform-specific instructions" — maps onto this
class as: (1) ``params`` + each accelerator's ``supports``/cycle
model, (2) the optional ``prefer`` selection heuristic, and (3) the
accelerator ``execute`` kernels.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..errors import DispatchError
from .energy import DEFAULT_ENERGY, EnergyParams
from .memory import MemoryRegion
from .params import DEFAULT_PARAMS, DianaParams


class Platform:
    """One assembled heterogeneous platform: CPU + accelerators + memories.

    Attributes:
        name: registry identity (``"diana"`` for the stock SoC). Flows
            into compiled-model fingerprints, ``.dna`` artifacts and
            the native build-cache key for non-default platforms.
        params: all architecture/calibration constants (memory
            geometry, clocks, DMA and kernel throughput).
        accelerators: name -> accelerator model. The dict is open: the
            registry populates it from the platform spec's factories,
            so new platforms can carry any accelerator set.
        energy: the platform's energy constants.
        prefer: optional multi-accelerator selection heuristic with
            signature ``prefer(spec, accepted_names) -> name``; the
            rule-based mapper consults it when set (paper component 2).
    """

    def __init__(self, params: Optional[DianaParams] = None,
                 accelerators: Optional[Dict[str, object]] = None,
                 name: str = "custom",
                 energy: EnergyParams = DEFAULT_ENERGY,
                 prefer: Optional[Callable] = None):
        self.name = name
        self.params = params or DEFAULT_PARAMS
        self.accelerators: Dict[str, object] = dict(accelerators or {})
        self.energy = energy
        self.prefer = prefer

    def accelerator(self, name: str):
        try:
            return self.accelerators[name]
        except KeyError:
            raise DispatchError(
                f"platform has no accelerator {name!r}; "
                f"available: {sorted(self.accelerators)}"
            ) from None

    def fresh_l2(self) -> MemoryRegion:
        """A new empty L2 region (shared main memory)."""
        return MemoryRegion("L2", self.params.l2_bytes)

    def __repr__(self):
        return (f"{type(self).__name__}(name={self.name!r}, "
                f"accelerators={sorted(self.accelerators)})")
