"""Build, cache, and load the native shared library for a model.

The compile-once/serve-many split, taken to machine code: the first
process that needs a model's native backend compiles ``native.c``
(:func:`repro.codegen.native.emit_native_sources`) with the system C
compiler into ``native-<fp16>-abi<N>.so`` next to the ``.dna`` (or in
``$REPRO_NATIVE_CACHE`` / ``~/.cache/repro/native``); every later
process — a fleet worker, a CLI run, a benchmark — just ``dlopen``\\ s
the cached file.

Persistence discipline mirrors :class:`repro.core.cache.TilingCache`:
build into a private ``tempfile.mkdtemp`` inside the cache directory,
then ``os.replace`` the finished library into place. Concurrent
builders race benignly — emission is deterministic in the fingerprint,
so both produce equivalent libraries and the loser's ``os.replace``
is a no-op overwrite. Staleness is proven, not assumed: the artifact
fingerprint is baked into the library (``repro_native_build_key``) and
re-checked after every ``dlopen``; a mismatched or unloadable library
is deleted and rebuilt once, then given up on (``None`` → the caller
falls back to the ``fast`` interpreter).

Binding goes through the stdlib :mod:`ctypes`; no new dependencies.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from .native import (
    NATIVE_ABI_VERSION,
    emit_native_sources,
    native_step_indices,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle: core imports codegen
    from ..core.program import CompiledModel

#: set to ``1`` to disable the native toolchain entirely (kill switch;
#: inherited over fork, which is how the fleet chaos tests simulate a
#: worker box without a compiler).
DISABLE_ENV = "REPRO_NATIVE_DISABLE"

#: overrides the default library cache directory.
CACHE_ENV = "REPRO_NATIVE_CACHE"

#: extra compiler flags appended to the default set (space-separated).
CFLAGS_ENV = "REPRO_NATIVE_CFLAGS"

_CC_TIMEOUT_S = 180.0

_stats_lock = threading.Lock()
_STATS = {"builds": 0, "hits": 0, "misses": 0, "failures": 0}

_warned_no_compiler = False

_find_cache: Dict[tuple, Optional[str]] = {}

_load_lock = threading.Lock()
_LOADED: Dict[str, "NativeModule"] = {}


class NativeLibraryError(RuntimeError):
    """A cached library exists but cannot serve this model (wrong ABI,
    wrong build key, missing symbols, or dlopen failure)."""


def build_stats() -> Dict[str, int]:
    with _stats_lock:
        return dict(_STATS)


def reset_build_stats() -> None:
    with _stats_lock:
        for k in _STATS:
            _STATS[k] = 0


def _bump(key: str) -> None:
    with _stats_lock:
        _STATS[key] += 1


def find_c_compiler() -> Optional[str]:
    """Locate a usable C compiler ($CC, then cc/gcc/clang on PATH).

    Returns the absolute executable path, or ``None`` when the host has
    no toolchain (or ``REPRO_NATIVE_DISABLE=1``). The result is
    memoized per relevant environment, and the no-compiler case warns
    exactly once per process — callers then silently fall back to the
    ``fast`` interpreter.
    """
    global _warned_no_compiler
    key = (os.environ.get(DISABLE_ENV, ""), os.environ.get("CC", ""),
           os.environ.get("PATH", ""))
    if key in _find_cache:
        return _find_cache[key]
    found: Optional[str] = None
    if key[0] != "1":
        candidates: List[str] = []
        if key[1]:
            candidates.append(key[1])
        candidates += ["cc", "gcc", "clang"]
        for cand in candidates:
            path = shutil.which(cand)
            if path:
                found = path
                break
    _find_cache[key] = found
    if found is None and not _warned_no_compiler:
        _warned_no_compiler = True
        why = ("native backend disabled via %s=1" % DISABLE_ENV
               if key[0] == "1" else
               "no C compiler found ($CC, cc, gcc, clang)")
        warnings.warn(
            "%s; exec_mode='native' will fall back to the 'fast' "
            "interpreter" % why, RuntimeWarning, stacklevel=2)
    return found


def native_cache_dir(artifact_path: Optional[str] = None) -> str:
    """Where native libraries live: ``$REPRO_NATIVE_CACHE`` wins, else
    next to the artifact, else ``~/.cache/repro/native``."""
    env = os.environ.get(CACHE_ENV)
    if env:
        return env
    if artifact_path:
        return os.path.dirname(os.path.abspath(artifact_path)) or "."
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "native")


def library_name(fingerprint: str) -> str:
    """Cache file name for a compiled model's native library."""
    return "native-%s-abi%d.so" % (fingerprint[:16], NATIVE_ABI_VERSION)


def library_path(model: CompiledModel, cache_dir: Optional[str] = None,
                 fingerprint: Optional[str] = None) -> str:
    if fingerprint is None:
        fingerprint = model.fingerprint()
    return os.path.join(cache_dir or native_cache_dir(),
                        library_name(fingerprint))


def build_native_library(model: CompiledModel,
                         cache_dir: Optional[str] = None,
                         compiler: Optional[str] = None,
                         force: bool = False,
                         fingerprint: Optional[str] = None) -> Optional[str]:
    """Compile (or reuse) the cached shared library for ``model``.

    Returns the library path, or ``None`` when no compiler is available
    or compilation fails — never raises for toolchain problems.
    """
    if fingerprint is None:
        fingerprint = model.fingerprint()
    lib = library_path(model, cache_dir, fingerprint)
    if not force and os.path.exists(lib):
        _bump("hits")
        return lib
    _bump("misses")
    if compiler is None:
        compiler = find_c_compiler()
    if compiler is None:
        return None
    parent = os.path.dirname(lib) or "."
    os.makedirs(parent, exist_ok=True)
    source = emit_native_sources(model, build_key=fingerprint)
    tmpdir = tempfile.mkdtemp(prefix=".native-build-", dir=parent)
    try:
        src_path = os.path.join(tmpdir, "native.c")
        out_path = os.path.join(tmpdir, "native.so")
        with open(src_path, "w") as fh:
            fh.write(source)
        cmd = [compiler, "-O3", "-fPIC", "-std=c11", "-shared"]
        cmd += os.environ.get(CFLAGS_ENV, "").split()
        cmd += ["-o", out_path, src_path]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=_CC_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            _bump("failures")
            warnings.warn("native build failed to run %r: %s"
                          % (compiler, exc), RuntimeWarning)
            return None
        if proc.returncode != 0:
            _bump("failures")
            warnings.warn(
                "native build failed (%s exit %d):\n%s"
                % (compiler, proc.returncode, proc.stderr.strip()[-2000:]),
                RuntimeWarning)
            return None
        # atomic publish: concurrent builders emit identical semantics
        # for the same fingerprint, so last-writer-wins is safe
        os.replace(out_path, lib)
        _bump("builds")
        return lib
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# bindings
# ---------------------------------------------------------------------------

class _CtypesBinding:
    """ctypes binding; all pointer arguments are integer addresses."""

    def __init__(self, path: str):
        import ctypes

        self._ct = ctypes
        try:
            self._lib = ctypes.CDLL(path)
            fn = self._bind("repro_native_abi", [], ctypes.c_int32)
            self.abi = int(fn())
        except (OSError, AttributeError) as exc:
            raise NativeLibraryError("dlopen failed: %s" % exc) from exc
        key_fn = self._bind("repro_native_build_key", [], ctypes.c_char_p)
        raw = key_fn()
        self.build_key = (raw or b"").decode("ascii")
        self.num_steps = int(
            self._bind("repro_native_num_steps", [], ctypes.c_int32)())
        self.has_full_run = bool(
            self._bind("repro_native_has_full_run", [], ctypes.c_int32)())
        self._supported = self._bind(
            "repro_native_step_supported", [ctypes.c_int32], ctypes.c_int32)
        self._set_w = self._bind(
            "repro_native_set_weights",
            [ctypes.c_int32, ctypes.c_void_p, ctypes.c_void_p],
            ctypes.c_int32)
        self._run_step = self._bind(
            "repro_native_run_step",
            [ctypes.c_int32, ctypes.c_void_p, ctypes.c_void_p,
             ctypes.c_void_p, ctypes.c_int32], ctypes.c_int32)
        self._run = self._bind(
            "repro_native_run",
            [ctypes.POINTER(ctypes.c_void_p), ctypes.c_void_p,
             ctypes.c_int32], ctypes.c_int32)

    def _bind(self, name: str, argtypes, restype):
        try:
            fn = getattr(self._lib, name)
        except AttributeError as exc:
            raise NativeLibraryError("missing symbol %s" % name) from exc
        fn.argtypes = argtypes
        fn.restype = restype
        return fn

    def step_supported(self, idx: int) -> bool:
        return bool(self._supported(idx))

    def set_weights(self, idx: int, waddr: int, baddr: int) -> int:
        return int(self._set_w(idx, waddr or None, baddr or None))

    def run_step(self, idx: int, xaddr: int, yaddr: int, oaddr: int,
                 n: int) -> int:
        return int(self._run_step(idx, xaddr or None, yaddr or None,
                                  oaddr or None, n))

    def run(self, in_addrs: Sequence[int], oaddr: int, n: int) -> int:
        ct = self._ct
        arr = (ct.c_void_p * len(in_addrs))(*[a or None for a in in_addrs])
        return int(self._run(arr, oaddr, n))


def _open_binding(path: str):
    """dlopen ``path`` through a unique hard link.

    glibc caches loaded objects by pathname, so dlopening a path whose
    file was just replaced (stale-library rebuild, concurrent builder
    winning the ``os.replace`` race) would silently return the *old*
    mapping. A uniquely named hard link to the current inode defeats
    the name cache while costing nothing; the link is removed as soon
    as the handle is open. Falls back to the plain path where hard
    links are unavailable.
    """
    d = os.path.dirname(os.path.abspath(path)) or "."
    try:
        st = os.stat(path)
        link = os.path.join(
            d, ".%s.ino%d-pid%d" % (os.path.basename(path), st.st_ino,
                                    os.getpid()))
        if not os.path.exists(link):
            os.link(path, link)
    except OSError:
        return _CtypesBinding(path)
    try:
        return _CtypesBinding(link)
    finally:
        try:
            os.unlink(link)
        except OSError:
            pass


def open_native_build_key(path: str) -> str:
    """Load a native library just far enough to read its build key.

    Raises :class:`NativeLibraryError` when the library cannot be
    opened or does not export the expected ABI surface (the verifier
    turns that into a warning, not an error — an unloadable sidecar
    only costs the fast-path fallback).
    """
    binding = _open_binding(path)
    if binding.abi != NATIVE_ABI_VERSION:
        raise NativeLibraryError(
            "ABI mismatch: library has %d, runtime expects %d"
            % (binding.abi, NATIVE_ABI_VERSION))
    return binding.build_key


class NativeModule:
    """A loaded per-artifact native library bound to a model's weights.

    Thread-safe: a single lock serializes calls into the library
    because kernels share ``static`` scratch (padding buffers, the
    full-run arena) and the weight-pointer table.
    """

    def __init__(self, path: str, model: CompiledModel,
                 fingerprint: Optional[str] = None):
        if fingerprint is None:
            fingerprint = model.fingerprint()
        self.path = path
        self._lock = threading.Lock()
        self._bind = _open_binding(path)
        if self._bind.abi != NATIVE_ABI_VERSION:
            raise NativeLibraryError(
                "ABI mismatch: library %d, runtime %d"
                % (self._bind.abi, NATIVE_ABI_VERSION))
        if self._bind.build_key != fingerprint:
            raise NativeLibraryError(
                "stale native library: build key %s.. != fingerprint %s.."
                % (self._bind.build_key[:16], fingerprint[:16]))
        if self._bind.num_steps != len(model.steps):
            raise NativeLibraryError("step count mismatch")
        self.build_key = fingerprint
        self.num_steps = self._bind.num_steps
        self.has_full_run = self._bind.has_full_run
        self.native_idx = frozenset(native_step_indices(model))
        self._keepalive: Dict[int, tuple] = {}
        self.register_weights(model)

    def register_weights(self, model: CompiledModel) -> None:
        """(Re)bind weight/bias pointers; keeps the arrays alive for
        the lifetime of this module."""
        keep: Dict[int, tuple] = {}
        with self._lock:
            for i in sorted(self.native_idx):
                spec = model.steps[i].spec
                w = None
                if spec.weight is not None:
                    w = np.ascontiguousarray(spec.weight, dtype=np.int8)
                b = None
                if spec.bias is not None:
                    b = np.ascontiguousarray(spec.bias, dtype=np.int32)
                keep[i] = (w, b)
                rc = self._bind.set_weights(
                    i, w.ctypes.data if w is not None else 0,
                    b.ctypes.data if b is not None else 0)
                if rc != 0:
                    raise NativeLibraryError(
                        "set_weights(%d) returned %d" % (i, rc))
            self._keepalive = keep

    def step_supported(self, idx: int) -> bool:
        return idx in self.native_idx

    def run_step(self, idx: int, spec, x: np.ndarray,
                 y: Optional[np.ndarray] = None) -> Optional[np.ndarray]:
        """Execute one step natively; returns the int8 output, or
        ``None`` when the arguments don't match the compiled geometry
        (caller falls back to the interpreter)."""
        if idx not in self.native_idx:
            return None
        if x.dtype != np.int8 or (y is not None and y.dtype != np.int8):
            return None
        if spec.kind in ("conv2d", "dwconv2d"):
            per_shape = (spec.in_channels, spec.iy, spec.ix)
            out_tail = (spec.out_channels, spec.oy, spec.ox)
        elif spec.kind == "dense":
            per_shape = (spec.in_channels,)
            out_tail = (spec.out_channels,)
        elif spec.kind == "add":
            if y is None or y.shape != x.shape:
                return None
            per = spec.in_channels * spec.oy * spec.ox
            if x.size == 0 or x.size % per:
                return None
            per_shape = None
            out_tail = None
        else:
            return None
        if per_shape is not None:
            nd = len(per_shape)
            if x.ndim == nd:
                n, out_shape = 1, out_tail
            elif x.ndim == nd + 1:
                n, out_shape = x.shape[0], (x.shape[0],) + out_tail
            else:
                return None
            if x.shape[-nd:] != per_shape or n <= 0:
                return None
        else:
            per = spec.in_channels * spec.oy * spec.ox
            n, out_shape = x.size // per, x.shape
        x = np.ascontiguousarray(x)
        yaddr = 0
        if spec.kind == "add":
            y = np.ascontiguousarray(y)
            yaddr = y.ctypes.data
        out = np.empty(out_shape, dtype=np.int8)
        with self._lock:
            rc = self._bind.run_step(idx, x.ctypes.data, yaddr,
                                     out.ctypes.data, int(n))
        return out if rc == 0 else None

    def run_full(self, inputs: List[np.ndarray], out_elems: int,
                 n: int) -> Optional[np.ndarray]:
        """Whole-network execution: ``inputs`` are contiguous int8
        arrays of ``n`` samples each; returns ``(n, out_elems)`` int8
        or ``None`` when the library has no full-run entry point."""
        if not self.has_full_run or n <= 0:
            return None
        ins = [np.ascontiguousarray(a) for a in inputs]
        if any(a.dtype != np.int8 for a in ins):
            return None
        out = np.empty((n, out_elems), dtype=np.int8)
        with self._lock:
            rc = self._bind.run([a.ctypes.data for a in ins],
                                out.ctypes.data, int(n))
        return out if rc == 0 else None


def load_native_module(model: CompiledModel,
                       cache_dir: Optional[str] = None,
                       build: bool = True) -> Optional[NativeModule]:
    """Build-or-load the native module for ``model``.

    Returns ``None`` (never raises) when the host has no toolchain, the
    build fails, or a cached library is stale and cannot be rebuilt —
    callers treat ``None`` as "use the fast interpreter".
    A stale or unloadable cached library is deleted and rebuilt once.
    """
    if not native_step_indices(model):
        return None
    fingerprint = model.fingerprint()
    lib = library_path(model, cache_dir, fingerprint)
    if not os.path.exists(lib):
        if not build:
            return None
        if build_native_library(model, cache_dir,
                                fingerprint=fingerprint) is None:
            return None
    else:
        _bump("hits")
    real = os.path.realpath(lib)
    with _load_lock:
        mod = _LOADED.get(real)
        if mod is not None and mod.build_key == fingerprint:
            mod.register_weights(model)
            return mod
        try:
            mod = NativeModule(lib, model, fingerprint)
        except NativeLibraryError as exc:
            warnings.warn("discarding stale native library %s (%s)"
                          % (lib, exc), RuntimeWarning)
            try:
                os.unlink(lib)
            except OSError:
                pass
            if not build or build_native_library(
                    model, cache_dir, force=True,
                    fingerprint=fingerprint) is None:
                return None
            try:
                mod = NativeModule(lib, model, fingerprint)
            except NativeLibraryError:
                return None
        _LOADED[real] = mod
        return mod
