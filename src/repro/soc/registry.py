"""Platform plugin registry: declarative specs behind one coordinator.

The paper's generality claim (Sec. III-C) is that porting the compiler
to a new heterogeneous platform takes only hardware specs, heuristics
and platform instructions. This module is that porting surface:

* :class:`PlatformSpec` — a declarative description of one platform
  (name, calibration params, accelerator factories, energy model,
  selection heuristic), validated at registration time,
* :func:`register_platform` — decorator / function registration API,
* :func:`get_platform` — the coordinator every compiler, runtime,
  serving and eval entry point — and every test, benchmark and
  example — constructs platforms through.

Plugins register in one of three ways:

1. import-time call / decorator (``examples/custom_accelerator.py``)::

       @register_platform
       def bignpu() -> PlatformSpec: ...

2. the ``REPRO_PLATFORMS`` environment variable — a comma-separated
   list of importable modules, imported lazily on the first unknown
   platform name, so CLI invocations can reach plugin platforms::

       REPRO_PLATFORMS=examples.custom_accelerator repro dse ...

3. Python entry points in the ``repro.platforms`` group (for installed
   plugin packages), also resolved lazily.
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import PlatformError
from .analog import AnalogAccelerator
from .digital import DigitalAccelerator
from .energy import DEFAULT_ENERGY, EnergyParams
from .params import DEFAULT_PARAMS, DianaParams
from .platform import Platform

#: the stock platform; its fingerprints and outputs are the historical
#: baseline every refactor must keep bit-exact.
DEFAULT_PLATFORM = "diana"

#: entry-point group scanned for installed plugin platforms.
ENTRY_POINT_GROUP = "repro.platforms"

#: environment variable naming plugin modules to import (comma-sep).
PLATFORMS_ENV = "REPRO_PLATFORMS"

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9._-]*$")


@dataclass(frozen=True)
class PlatformSpec:
    """Declarative description of one heterogeneous platform.

    Attributes:
        name: registry identity (lowercase ``[a-z0-9._-]``); flows into
            config/model fingerprints and ``.dna`` artifacts.
        params: architecture + calibration constants, including the
            memory geometry (``l1_bytes``/``l2_bytes``/weight
            memories) every accelerator and the tiler read.
        accelerators: accelerator name -> factory. Each factory is
            called with the resolved ``params`` and must return an
            accelerator model exposing ``name``, ``supports(spec)``,
            the event-count hook ``layer_counts(spec, tiles)`` and
            (for simulation) ``execute``.
            Insertion order is preserved on the platform object.
        energy: the platform's energy constants.
        prefer: optional selection heuristic ``prefer(spec, accepted)
            -> name`` consulted by the rule-based mapper when several
            accelerators accept a layer (paper component 2).
        model_precision: the model-zoo precision variant this
            platform's accelerator mix is calibrated for — the DSE
            service and examples use it to pick matching quantized
            graphs (``"int8"``, ``"ternary"`` or ``"mixed"``).
        description: one line for ``repro platforms`` listings.
    """

    name: str
    params: DianaParams = DEFAULT_PARAMS
    accelerators: Mapping[str, Callable] = field(default_factory=dict)
    energy: EnergyParams = DEFAULT_ENERGY
    prefer: Optional[Callable] = None
    model_precision: str = "mixed"
    description: str = ""

    def with_overrides(self, **kwargs) -> "PlatformSpec":
        """A copy with selected fields replaced (for variant specs)."""
        return replace(self, **kwargs)


def validate_spec(spec: PlatformSpec) -> None:
    """Raise :class:`~repro.errors.PlatformError` on an invalid spec.

    Validation runs at registration time so a bad plugin fails at
    import, not mid-compile: name syntax, callable factories with
    well-formed accelerator names, and a callable ``prefer`` hook
    (``DianaParams`` checks its own constants when constructed).
    """
    if not isinstance(spec, PlatformSpec):
        raise PlatformError(
            f"register_platform needs a PlatformSpec, got {type(spec).__name__}")
    if not isinstance(spec.name, str) or not _NAME_RE.match(spec.name):
        raise PlatformError(
            f"invalid platform name {spec.name!r}: must be lowercase "
            "[a-z0-9._-] and start with a letter or digit")
    if not isinstance(spec.accelerators, Mapping):
        raise PlatformError(
            f"platform {spec.name!r}: accelerators must map name -> "
            f"factory, got {type(spec.accelerators).__name__}")
    for accel_name, factory in spec.accelerators.items():
        if not isinstance(accel_name, str) or not accel_name:
            raise PlatformError(
                f"platform {spec.name!r}: accelerator names must be "
                f"non-empty strings, got {accel_name!r}")
        if not callable(factory):
            raise PlatformError(
                f"platform {spec.name!r}: accelerator {accel_name!r} "
                f"factory is not callable ({factory!r})")
    if spec.prefer is not None and not callable(spec.prefer):
        raise PlatformError(
            f"platform {spec.name!r}: prefer hook is not callable")
    if spec.model_precision not in ("int8", "ternary", "mixed"):
        raise PlatformError(
            f"platform {spec.name!r}: model_precision must be "
            f"'int8', 'ternary' or 'mixed', got {spec.model_precision!r}")


_registry: Dict[str, PlatformSpec] = {}
_lock = threading.Lock()
_plugins_loaded = False


def register_platform(spec_or_factory=None, *, replace: bool = False):
    """Register one platform spec; returns the argument unchanged.

    Three forms::

        register_platform(PlatformSpec(name="npu", ...))   # direct

        @register_platform                                  # decorator
        def my_platform() -> PlatformSpec: ...

        register_platform(my_spec, replace=True)            # overwrite

    The decorator form calls the function once at decoration time and
    registers its result, so importing a plugin module is enough to
    make its platforms resolvable. Duplicate names raise
    :class:`~repro.errors.PlatformError` unless ``replace=True``.
    """
    if spec_or_factory is None:
        # @register_platform(replace=True) parameterized-decorator form
        def _decorator(factory):
            return register_platform(factory, replace=replace)
        return _decorator

    spec = spec_or_factory() if callable(spec_or_factory) else spec_or_factory
    validate_spec(spec)
    with _lock:
        if not replace and spec.name in _registry:
            raise PlatformError(
                f"platform {spec.name!r} is already registered; pass "
                "replace=True to overwrite")
        _registry[spec.name] = spec
    return spec_or_factory


def unregister_platform(name: str) -> None:
    """Remove one registered platform (plugin teardown / tests)."""
    if name == DEFAULT_PLATFORM:
        raise PlatformError(f"cannot unregister the default platform "
                            f"{DEFAULT_PLATFORM!r}")
    with _lock:
        _registry.pop(name, None)


def platform_names() -> List[str]:
    """Sorted names of every registered platform (plugins included)."""
    _load_plugins()
    with _lock:
        return sorted(_registry)


def get_platform_spec(name: str = DEFAULT_PLATFORM) -> PlatformSpec:
    """Look up one registered spec; loads plugins on a first miss."""
    with _lock:
        spec = _registry.get(name)
    if spec is None:
        _load_plugins()
        with _lock:
            spec = _registry.get(name)
    if spec is None:
        raise PlatformError(
            f"unknown platform {name!r}; registered: "
            f"{sorted(_registry)} (plugins register via "
            f"repro.soc.register_platform, the {PLATFORMS_ENV} "
            f"environment variable, or {ENTRY_POINT_GROUP!r} entry "
            "points)")
    return spec


def get_platform(name: str = DEFAULT_PLATFORM,
                 params: Optional[DianaParams] = None,
                 *,
                 enable_digital: bool = True,
                 enable_analog: bool = True,
                 accelerators: Optional[Iterable[str]] = None) -> Platform:
    """Construct one platform instance — the single construction path.

    Args:
        name: a registered platform name (``repro platforms`` lists
            them; unknown names trigger lazy plugin loading first).
        params: calibration-constant override (ablations/sweeps); the
            spec's own params otherwise.
        enable_digital / enable_analog: legacy accelerator gates kept
            for the Table I single-accelerator columns — they drop the
            stock ``soc.digital`` / ``soc.analog`` entries from the
            accelerator set when present (no-ops on platforms without
            them).
        accelerators: optional explicit accelerator-name subset (the
            artifact loader uses it to reconstruct exactly the packed
            accelerator set).

    Returns a :class:`~repro.soc.platform.Platform` carrying the
    spec's identity, so compiled-model fingerprints and ``.dna``
    artifacts key on the platform name.
    """
    spec = get_platform_spec(name)
    effective = params if params is not None else spec.params

    selected: List[Tuple[str, Callable]] = list(spec.accelerators.items())
    if accelerators is not None:
        wanted = set(accelerators)
        unknown = wanted - {n for n, _ in selected}
        if unknown:
            raise PlatformError(
                f"platform {name!r} has no accelerator(s) "
                f"{sorted(unknown)}; spec provides "
                f"{sorted(spec.accelerators)}")
        selected = [(n, f) for n, f in selected if n in wanted]
    if not enable_digital:
        selected = [(n, f) for n, f in selected if n != "soc.digital"]
    if not enable_analog:
        selected = [(n, f) for n, f in selected if n != "soc.analog"]

    built = {}
    for accel_name, factory in selected:
        accel = factory(effective)
        if getattr(accel, "name", accel_name) != accel_name:
            raise PlatformError(
                f"platform {name!r}: factory for {accel_name!r} built "
                f"an accelerator named {accel.name!r}")
        built[accel_name] = accel
    return Platform(params=effective, accelerators=built, name=spec.name,
                    energy=spec.energy, prefer=spec.prefer)


def _load_plugins() -> None:
    """Import plugin modules named by env var / entry points, once."""
    global _plugins_loaded
    if _plugins_loaded:
        return
    _plugins_loaded = True

    import importlib

    for mod in os.environ.get(PLATFORMS_ENV, "").split(","):
        mod = mod.strip()
        if not mod:
            continue
        try:
            importlib.import_module(mod)
        except Exception as exc:  # noqa: BLE001 — a broken plugin must
            # not take down the host process; surface it and move on
            import warnings
            warnings.warn(f"{PLATFORMS_ENV}: could not import platform "
                          f"plugin module {mod!r}: {exc}", stacklevel=2)
    try:
        from importlib.metadata import entry_points
        eps = entry_points()
        group = (eps.select(group=ENTRY_POINT_GROUP)
                 if hasattr(eps, "select")
                 else eps.get(ENTRY_POINT_GROUP, ()))
        for ep in group:
            try:
                ep.load()
            except Exception as exc:  # noqa: BLE001
                import warnings
                warnings.warn(f"entry point {ep.name!r} "
                              f"({ENTRY_POINT_GROUP}): {exc}", stacklevel=2)
    except Exception:  # noqa: BLE001 — no metadata backend available
        pass


# ---------------------------------------------------------------------------
# built-in platforms: the stock DIANA plus its single-accelerator
# ablation pair (and the CPU-only view the plain-TVM baseline uses)
# ---------------------------------------------------------------------------

register_platform(PlatformSpec(
    name="diana",
    params=DEFAULT_PARAMS,
    accelerators={"soc.digital": DigitalAccelerator,
                  "soc.analog": AnalogAccelerator},
    model_precision="mixed",
    description="stock DIANA: 16x16 digital PE array + 1152x512 "
                "analog IMC macro (paper Fig. 3)",
))

register_platform(PlatformSpec(
    name="diana-noanalog",
    params=DEFAULT_PARAMS,
    accelerators={"soc.digital": DigitalAccelerator},
    model_precision="int8",
    description="ablation: digital accelerator only (Table I "
                "'digital' column)",
))

register_platform(PlatformSpec(
    name="diana-nodig",
    params=DEFAULT_PARAMS,
    accelerators={"soc.analog": AnalogAccelerator},
    model_precision="ternary",
    description="ablation: analog IMC accelerator only (Table I "
                "'analog' column)",
))

register_platform(PlatformSpec(
    name="diana-cpu",
    params=DEFAULT_PARAMS,
    accelerators={},
    model_precision="int8",
    description="CPU-only view (plain-TVM baseline; both "
                "accelerators fused off)",
))
