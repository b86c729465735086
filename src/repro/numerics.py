"""Integer numpy kernels shared by every execution path.

The reference executor, the CPU model, and both accelerator models all
call these functions, so "does the tiled accelerator execution equal the
untiled reference?" tests compare genuinely independent *schedules* over
identical arithmetic — exactly the guarantee the real HTVM flow gives
(same kernel semantics, different orchestration).

All kernels follow TFLite-style integer semantics:

* convolutions/dense accumulate in int32,
* ``right_shift`` uses round-half-up requantization
  (``(x + (1 << (s-1))) >> s``), as DORY's generated code does,
* average pooling rounds to nearest.
"""

from __future__ import annotations

import threading
import weakref
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import SimulationError


def _pad_pairs(padding):
    """Normalize ``((pt, pb), (pl, pr))`` / symmetric ``(ph, pw)`` pads."""
    ph, pw = padding
    pt, pb = (ph, ph) if isinstance(ph, (int, np.integer)) else ph
    pl, pr = (pw, pw) if isinstance(pw, (int, np.integer)) else pw
    return pt, pb, pl, pr


def pad_nchw(x: np.ndarray, padding, value: int = 0) -> np.ndarray:
    """Pad the two spatial dims of an NCHW tensor with ``value``.

    ``padding`` is either symmetric ``(ph, pw)`` or asymmetric
    ``((pad_top, pad_bottom), (pad_left, pad_right))`` — the latter is
    what edge tiles of a DORY schedule need. Unpadded inputs are
    returned as is.
    """
    return _pad_cast(x, padding, x.dtype, value)


def _pad_cast(x: np.ndarray, padding, dt, value: int = 0) -> np.ndarray:
    """Pad and cast in one pass (conv/pool input preparation).

    One allocation plus one slice assignment: cheaper than ``np.pad``
    followed by ``astype``, which matters on per-tile calls.
    """
    pt, pb, pl, pr = _pad_pairs(padding)
    if pt == 0 and pb == 0 and pl == 0 and pr == 0:
        return np.asarray(x, dtype=dt)
    n, c, ih, iw = x.shape
    shape = (n, c, ih + pt + pb, iw + pl + pr)
    out = (np.zeros(shape, dtype=dt) if value == 0
           else np.full(shape, value, dtype=dt))
    out[:, :, pt:pt + ih, pl:pl + iw] = x
    return out


def _windows(xp: np.ndarray, fh: int, fw: int, sh: int, sw: int) -> np.ndarray:
    """Strided ``(n, c, oh, ow, fh, fw)`` view of all filter windows."""
    win = sliding_window_view(xp, (fh, fw), axis=(2, 3))
    return win[:, :, ::sh, ::sw]


def _acc_dtype(x: np.ndarray, w: np.ndarray, reduction: int):
    """Accumulation dtype for a MAC reduction: BLAS floats when exact.

    int8 products stay below 2**14, so up to 1024 taps the true sum is
    at most 2**24 — every such integer is exactly representable in
    float32 and the contraction runs on sgemm. int16-or-narrower
    operands over at most 2**20 taps bound the sum by 2**50, inside
    float64's 53-bit exact-integer range (dgemm). Casting the exact
    float accumulator through int64 to int32 then reproduces the
    hardware's two's-complement wraparound bit-for-bit. Anything wider
    falls back to modular int32 arithmetic directly.
    """
    if x.dtype.kind != "i" or w.dtype.kind != "i":
        return np.int32
    if (x.dtype.itemsize == 1 and w.dtype.itemsize == 1
            and reduction <= (1 << 10)):
        return np.float32
    if (x.dtype.itemsize <= 2 and w.dtype.itemsize <= 2
            and reduction <= (1 << 20)):
        return np.float64
    return np.int32


#: id -> (weakref to source, dtype, cast copy). Weights are static
#: across inferences, so their float cast is worth memoizing; the
#: weakref guard detects id reuse after garbage collection. The lock
#: covers mutation (lookups are GIL-atomic) — the parallel harness
#: runs kernels from several threads.
_CAST_MEMO: dict = {}
_CAST_LOCK = threading.Lock()


def _memo_cast(w: np.ndarray, dt) -> np.ndarray:
    """Memoized ``w.astype(dt)`` for long-lived (weight) arrays."""
    if w.base is not None:
        # views (per-tile weight slices) are fresh objects every call:
        # memoizing them can never hit, only churn the table
        return w.astype(dt)
    entry = _CAST_MEMO.get(id(w))
    if entry is not None:
        ref, entry_dt, arr = entry
        if ref() is w and entry_dt == dt:
            return arr
    arr = w.astype(dt)
    try:
        ref = weakref.ref(w)
    except TypeError:  # some array subclasses refuse weakrefs
        return arr
    with _CAST_LOCK:
        if len(_CAST_MEMO) > 256:  # prune dead entries (stale slices)
            for key in [k for k, (r, _, _) in list(_CAST_MEMO.items())
                        if r() is None]:
                _CAST_MEMO.pop(key, None)
        _CAST_MEMO[id(w)] = (ref, dt, arr)
    return arr


def _to_int32(acc: np.ndarray) -> np.ndarray:
    """Exact float accumulator -> int32 with wraparound semantics."""
    if acc.dtype == np.int32:
        return acc
    if acc.dtype == np.float32:
        # _acc_dtype bounds float32 sums by 2**24: always in int32 range
        return acc.astype(np.int32)
    return acc.astype(np.int64).astype(np.int32)


#: batch size at which dense convolutions switch from the per-tap GEMM
#: to the explicit im2col GEMM whatever the shape. Per tap, the batched
#: matmul runs N small stacked GEMMs and N strided accumulation passes;
#: from a few samples up, one (K, C*fh*fw) x (C*fh*fw, OH*OW) GEMM per
#: sample over a materialized column buffer is measurably faster (the
#: serving batcher's hot path). Both orders are exact — see
#: ``_acc_dtype``.
_IM2COL_BATCH_THRESHOLD = 4

#: MACs at or below which OpenBLAS runs a GEMM on one thread (its
#: ``65536 * GEMM_MULTITHREAD_THRESHOLD`` cutoff, default threshold 4).
#: Single-sample im2col GEMMs are split by output columns to stay under
#: it: several serving processes each waking a BLAS thread pool for
#: sub-millisecond GEMMs oversubscribe the cores (unsplit, a 2-process
#: ResNet-8 fleet on 2 cores served 95 instead of 1291 req/s).
_BLAS_ONE_THREAD_MACS = 1 << 18


def _im2col_gemm(xp: np.ndarray, wa: np.ndarray, sh: int, sw: int,
                 oh: int, ow: int) -> np.ndarray:
    """Dense conv as one GEMM per sample over an explicit column buffer.

    Each output element is a single dot product over all ``c*fh*fw``
    taps, so the float-exactness bound of ``_acc_dtype`` (which is
    computed from exactly that reduction length) applies unchanged.
    Below the batch threshold each sample's GEMM is split by output
    columns into calls of at most ``_BLAS_ONE_THREAD_MACS`` MACs.
    """
    k, c, fh, fw = wa.shape
    n = xp.shape[0]
    s0, s1, s2, s3 = xp.strides
    # (n, c, fh, fw, oh, ow) window view built directly: no argument
    # re-validation per call, unlike sliding_window_view
    win = as_strided(xp, (n, c, fh, fw, oh, ow),
                     (s0, s1, s2, s3, s2 * sh, s3 * sw))
    red, cols = c * fh * fw, oh * ow
    col = np.ascontiguousarray(win).reshape(n, red, cols)
    wm = wa.reshape(k, red)
    step = max(1, _BLAS_ONE_THREAD_MACS // (k * red))
    if n >= _IM2COL_BATCH_THRESHOLD or step >= cols:
        return (wm @ col).reshape(n, k, oh, ow)
    out = np.empty((n, k, cols), dtype=col.dtype)
    for i in range(n):
        for j in range(0, cols, step):
            np.matmul(wm, col[i, :, j:j + step], out=out[i, :, j:j + step])
    return out.reshape(n, k, oh, ow)


def _per_tap_gemm(xp: np.ndarray, wa: np.ndarray, oh: int,
                  ow: int) -> np.ndarray:
    """Stride-1 dense conv as one ``(K, C) x (C, map)`` GEMM per tap.

    No im2col copy: each tap GEMMs the whole padded feature map
    (contiguous operands) and accumulates a shifted view of the result.
    """
    k, c, fh, fw = wa.shape
    n, _, ihp, iwp = xp.shape
    xf = xp.reshape(n, c, ihp * iwp)
    y = np.empty((n, k, ihp * iwp), dtype=xp.dtype)
    yv = y.reshape(n, k, ihp, iwp)
    acc = np.empty((n, k, oh, ow), dtype=xp.dtype)
    for dy in range(fh):
        for dx in range(fw):
            np.matmul(wa[:, :, dy, dx], xf, out=y)
            tap = yv[:, :, dy:dy + oh, dx:dx + ow]
            if dy == 0 and dx == 0:
                # tap 0 initializes acc, saving a zeroing pass
                np.copyto(acc, tap)
            else:
                acc += tap
    return acc


#: input channels x output pixels below which a single-sample stride-1
#: dense conv runs as an im2col GEMM (see :func:`_use_im2col`).
_IM2COL_MAX_C_PIXELS = 8192


def _use_im2col(n: int, c: int, taps: int, sh: int, sw: int,
                pixels: int) -> bool:
    """Dense-conv dispatch: explicit im2col GEMM or per-tap GEMMs.

    Batched inputs always take im2col. Single-sample, the rule is over
    observable shape only, fitted by timing every dense convolution the
    model zoo runs, full layers and DORY tiles (table in CHANGES.md):

    * strided convolutions — per tap they would gather one strided
      slice anyway (im2col 1.1-4x faster);
    * few input channels (``C <= 4``) — per-tap GEMMs are then K x C
      slivers, all call overhead (2.3-4x);
    * small maps, ``C * pixels < 8192`` — tiles, where the per-tap
      path's fixed cost of ``fh*fw`` GEMM calls dominates (1.1-3x);
    * large filters (more than 25 taps, up to 29x).

    Stride-1 convolutions with many channels over a large map keep the
    per-tap path: there the im2col buffer is ``fh*fw`` times the input
    and copying it costs as much as the taps' shifted adds save.
    """
    return (n >= _IM2COL_BATCH_THRESHOLD or sh != 1 or sw != 1 or c <= 4
            or c * pixels < _IM2COL_MAX_C_PIXELS or taps > 25)


def conv2d(x: np.ndarray, w: np.ndarray, strides=(1, 1), padding=(0, 0),
           groups: int = 1) -> np.ndarray:
    """Grouped 2D convolution, int32 accumulation.

    Dense convolutions (``groups == 1``) run either as per-tap GEMMs or
    as an explicit im2col GEMM, chosen from the input's shape (see
    :func:`_use_im2col`); depthwise convolutions (``C_g == 1``) use a
    dedicated per-tap path with no Python loop over channels. int32
    addition is associative and commutative even under wraparound, so
    all paths are byte-identical to the naive loop nest.

    Args:
        x: NCHW input (any integer dtype), unpadded.
        w: OIHW weights; I is C/groups.
        strides: spatial ``(sh, sw)``.
        padding: symmetric ``(ph, pw)`` or per-edge ``((pt, pb), (pl,
            pr))`` zero padding, applied in the same pass that casts
            ``x`` to the accumulation dtype — a DORY edge tile passes
            its residual border here instead of padding a copy first.
        groups: 1 for dense conv, C for depthwise.

    Returns:
        N x K x OH x OW int32 tensor.
    """
    return _to_int32(conv2d_acc(x, w, strides, padding, groups))


def conv2d_acc(x: np.ndarray, w: np.ndarray, strides=(1, 1), padding=(0, 0),
               groups: int = 1) -> np.ndarray:
    """:func:`conv2d` without the final int32 narrowing.

    Returns the raw exact accumulator in whatever dtype the MAC
    reduction ran in (float32/float64 when BLAS-exact, else int32) —
    a fresh array the caller owns, on every path (dense, depthwise and
    grouped). :func:`requantize_acc` consumes it directly, skipping one
    full-tensor materialization on the serving hot path; ``_to_int32``
    recovers the public contract.
    """
    n, c, ih, iw = x.shape
    k, cg, fh, fw = w.shape
    if c % groups or k % groups:
        raise SimulationError("conv2d: channels not divisible by groups")
    if cg != c // groups:
        raise SimulationError("conv2d: weight/groups mismatch")
    sh, sw = strides
    acc_dt = _acc_dtype(x, w, cg * fh * fw)
    xp = _pad_cast(x, padding, acc_dt)
    oh = (xp.shape[2] - fh) // sh + 1
    ow = (xp.shape[3] - fw) // sw + 1
    if oh <= 0 or ow <= 0:
        return np.zeros((n, k, max(oh, 0), max(ow, 0)), dtype=np.int32)
    wa = _memo_cast(w, acc_dt)
    kg = k // groups
    if groups == 1:
        if fh == 1 and fw == 1:
            # pointwise conv: a batched GEMM over the flattened (for
            # strided convs, subsampled) feature map, no im2col copy
            if sh != 1 or sw != 1:
                xp = np.ascontiguousarray(xp[:, :, ::sh, ::sw])
            out = wa[:, :, 0, 0] @ xp.reshape(n, c, oh * ow)
            return out.reshape(n, k, oh, ow)
        if _use_im2col(n, c, fh * fw, sh, sw, oh * ow):
            return _im2col_gemm(xp, wa, sh, sw, oh, ow)
        return _per_tap_gemm(xp, wa, oh, ow)
    if cg == 1 and kg == 1:
        # depthwise: per-tap multiply-accumulate, vectorized over all
        # channels (no Python loop over groups)
        wd = wa[:, 0]
        acc = np.zeros((n, k, oh, ow), dtype=acc_dt)
        for dy in range(fh):
            for dx in range(fw):
                acc += (xp[:, :, dy:dy + sh * oh:sh, dx:dx + sw * ow:sw]
                        * wd[None, :, dy, dx, None, None])
        return acc
    win = _windows(xp, fh, fw, sh, sw)
    if cg == 1:
        # channel-multiplier depthwise: every group owns one input
        # channel, so the whole layer is one einsum
        wg = wa.reshape(groups, kg, fh, fw)
        out = np.einsum("nghwyx,gkyx->ngkhw", win, wg, dtype=acc_dt)
        return _to_int32(np.ascontiguousarray(out.reshape(n, k, oh, ow)))
    out = np.empty((n, k, oh, ow), dtype=np.int32)
    for g in range(groups):
        res = np.tensordot(win[:, g * cg:(g + 1) * cg],
                           wa[g * kg:(g + 1) * kg],
                           axes=((1, 4, 5), (1, 2, 3)))
        out[:, g * kg:(g + 1) * kg] = _to_int32(res).transpose(0, 3, 1, 2)
    return out


def dense(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Fully-connected layer: x[N,C] @ w[K,C]^T with int32 accumulation."""
    return _to_int32(dense_acc(x, w))


def dense_acc(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """:func:`dense` without the final int32 narrowing (see
    :func:`conv2d_acc`)."""
    acc_dt = _acc_dtype(x, w, x.shape[-1])
    return x.astype(acc_dt) @ _memo_cast(w, acc_dt).T


def bias_add(x: np.ndarray, bias: np.ndarray, axis: int = 1) -> np.ndarray:
    """Add a per-channel bias along ``axis``."""
    shape = [1] * x.ndim
    shape[axis] = bias.shape[0]
    return (np.asarray(x, dtype=np.int32)
            + np.asarray(bias, dtype=np.int32).reshape(shape))


def right_shift(x: np.ndarray, shift: int, rounding: bool = True) -> np.ndarray:
    """Arithmetic right shift with optional round-half-up."""
    shift = int(shift)
    if shift < 0:
        raise SimulationError(f"negative shift {shift}")
    x = np.asarray(x, dtype=np.int32)
    if shift == 0:
        return x
    if rounding:
        x = x + (np.int32(1) << np.int32(shift - 1))
    return x >> np.int32(shift)


def clip(x: np.ndarray, a_min: int, a_max: int) -> np.ndarray:
    return np.clip(x, a_min, a_max)


def cast(x: np.ndarray, np_dtype) -> np.ndarray:
    return np.asarray(x, dtype=np_dtype)


def cast_exact(x, np_dtype) -> Optional[np.ndarray]:
    """``x`` as an array of ``np_dtype``, or ``None`` when the cast
    would change a value (out of range, fractional, NaN). An array that
    already has the dtype is returned as is, unchecked."""
    arr = np.asarray(x)
    if arr.dtype == np_dtype:
        return arr
    with np.errstate(invalid="ignore"):
        out = arr.astype(np_dtype)
    return out if np.array_equal(out, arr) else None


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def add(x: np.ndarray, y: np.ndarray, out_dtype=None) -> np.ndarray:
    dt = np.int32 if out_dtype is None else out_dtype
    return np.asarray(x, dtype=dt) + np.asarray(y, dtype=dt)


def avg_pool2d(x: np.ndarray, pool_size, strides, padding) -> np.ndarray:
    """Integer average pooling with round-to-nearest.

    The window sum runs over a sliding-window view; int32 addition is
    order-independent, so this is bit-exact vs. the per-tap loop.
    """
    fh, fw = pool_size
    sh, sw = strides
    xp = pad_nchw(x.astype(np.int32), padding)
    acc = _windows(xp, fh, fw, sh, sw).sum(axis=(4, 5), dtype=np.int32)
    count = fh * fw
    # round-half-up for negatives too (matches DORY's emitted C)
    return np.floor_divide(acc + count // 2, count).astype(x.dtype)


def max_pool2d(x: np.ndarray, pool_size, strides, padding) -> np.ndarray:
    """Max pooling; padding uses the dtype minimum so it never wins."""
    fh, fw = pool_size
    sh, sw = strides
    lo = np.iinfo(x.dtype).min
    xp = pad_nchw(x, padding, value=lo)
    return _windows(xp, fh, fw, sh, sw).max(axis=(4, 5))


def global_avg_pool2d(x: np.ndarray) -> np.ndarray:
    """Whole-feature-map integer average pool."""
    n, c, h, w = x.shape
    acc = x.astype(np.int32).sum(axis=(2, 3), keepdims=True)
    count = h * w
    return np.floor_divide(acc + count // 2, count).astype(x.dtype)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Float softmax (runs on the CPU in every DIANA configuration)."""
    xf = x.astype(np.float32)
    xf = xf - xf.max(axis=axis, keepdims=True)
    e = np.exp(xf)
    return (e / e.sum(axis=axis, keepdims=True)).astype(np.float32)


def requantize(acc: np.ndarray, shift: int, relu_after: bool,
               a_min: int = -128, a_max: int = 127) -> np.ndarray:
    """The full requantization tail: shift, clip, cast int8, optional ReLU.

    ReLU is folded into the clip lower bound — identical to clipping
    first and maxing after the int8 cast, one array pass cheaper.
    """
    if relu_after:
        a_min = max(a_min, 0)
    return clip(right_shift(acc, shift), a_min, a_max).astype(np.int8)


def bias_requantize(acc: np.ndarray, bias, shift: int, relu_after: bool,
                    a_min: int = -128, a_max: int = 127) -> np.ndarray:
    """Fused ``bias_add`` + :func:`requantize` (one layer's output tail).

    The per-channel bias and the round-half-up term are combined into a
    single broadcast add — int32 addition is associative mod 2**32, so
    the result is byte-identical to the unfused sequence.
    """
    shift = int(shift)
    if shift < 0:
        raise SimulationError(f"negative shift {shift}")
    acc = np.asarray(acc, dtype=np.int32)
    rnd = np.int32(1) << np.int32(shift - 1) if shift > 0 else np.int32(0)
    if bias is not None:
        shape = [1] * acc.ndim
        shape[1] = bias.shape[0]
        acc = acc + (np.asarray(bias, dtype=np.int32) + rnd).reshape(shape)
    elif rnd:
        acc = acc + rnd
    else:
        # shift == 0 and no bias: no add ran, so acc may still be the
        # caller's array, which the in-place clamp must not clobber
        acc = acc.copy()
    if shift > 0:
        # rnd > 0 forced an add above, so acc is a temporary we own
        np.right_shift(acc, np.int32(shift), out=acc)
    if relu_after:
        a_min = max(a_min, 0)
    return _clamp_to_int8(acc, a_min, a_max)


def _clamp_to_int8(acc: np.ndarray, a_min: int, a_max: int) -> np.ndarray:
    """Clamp an accumulator *the caller owns* in place, then narrow it.

    Two in-place ufunc passes skip ``np.clip``'s Python-level argument
    handling, which dominates on tile-sized arrays. Post-clamp values
    are small integers, so the narrowing int8 cast is exact.
    """
    np.maximum(acc, a_min, out=acc)
    np.minimum(acc, a_max, out=acc)
    return acc.astype(np.int8)


#: float accumulator dtype -> bits of its exact-integer range
_EXACT_INT_BITS = {np.dtype(np.float32): 24, np.dtype(np.float64): 53}


def requantize_acc(acc: np.ndarray, bias, shift: int, relu_after: bool,
                   a_min: int = -128, a_max: int = 127,
                   acc_bound: int = 0) -> np.ndarray:
    """Bias-add + requantize a *raw* accumulator from
    :func:`conv2d_acc` / :func:`dense_acc`.

    When the accumulator ran in exact floats and
    ``acc_bound + max|bias| + rounding`` provably stays inside the
    dtype's exact-integer range, the whole tail runs in place on the
    float array — no int32 materialization, no temporaries:
    ``floor((acc + bias + rnd) * 2**-shift)`` equals the hardware's
    arithmetic-shift-with-round-half-up bit-for-bit (``>>`` rounds
    toward -inf, exactly ``floor``). Otherwise it falls back to the
    classic int32 path. ``acc_bound`` is the caller's static bound on
    ``max|acc|`` (e.g. ``reduction_length << 14`` for int8 MACs); 0
    disables the float path.

    The accumulator must be owned by the caller — it is clobbered.
    """
    shift = int(shift)
    if shift < 0:
        raise SimulationError(f"negative shift {shift}")
    exact_bits = _EXACT_INT_BITS.get(acc.dtype)
    if exact_bits and acc_bound > 0:
        rnd = (1 << (shift - 1)) if shift > 0 else 0
        bias_max = int(np.abs(bias).max()) if bias is not None and \
            bias.size else 0
        # the fallback path wraps in int32 ("as the hardware does"), so
        # the float path must also prove no int32 overflow could occur
        safe_bits = min(exact_bits, 31)
        if acc_bound + bias_max + rnd < (1 << safe_bits):
            if bias is not None:
                shape = [1] * acc.ndim
                shape[1] = bias.shape[0]
                badd = (np.asarray(bias, dtype=np.int64) + rnd).astype(
                    acc.dtype).reshape(shape)
                np.add(acc, badd, out=acc)
            elif rnd:
                acc += acc.dtype.type(rnd)
            if shift > 0:
                np.multiply(acc, acc.dtype.type(2.0 ** -shift), out=acc)
                np.floor(acc, out=acc)
            if relu_after:
                a_min = max(a_min, 0)
            return _clamp_to_int8(acc, a_min, a_max)
    return bias_requantize(_to_int32(acc), bias, shift, relu_after,
                           a_min, a_max)


def concatenate(x: np.ndarray, y: np.ndarray, axis: int = 1) -> np.ndarray:
    """Channel (or other axis) concatenation."""
    return np.concatenate([x, y], axis=axis)


def _lut_activation(x: np.ndarray, scale_bits: int, fn) -> np.ndarray:
    """int8 -> int8 lookup-table activation.

    Inputs are interpreted as fixed-point values ``x / 2**scale_bits``;
    outputs are ``round(127 * fn(v))`` — the scheme TinyML runtimes use
    to evaluate sigmoids/tanh with a 256-entry table.
    """
    table_in = np.arange(-128, 128, dtype=np.int32)
    v = table_in.astype(np.float64) / (1 << scale_bits)
    table = np.clip(np.rint(127.0 * fn(v)), -128, 127).astype(np.int8)
    idx = x.astype(np.int32) + 128
    return table[idx]


def sigmoid_lut(x: np.ndarray, scale_bits: int = 4) -> np.ndarray:
    """int8 LUT sigmoid (see :func:`_lut_activation`)."""
    return _lut_activation(x, scale_bits, lambda v: 1.0 / (1.0 + np.exp(-v)))


def tanh_lut(x: np.ndarray, scale_bits: int = 4) -> np.ndarray:
    """int8 LUT tanh (see :func:`_lut_activation`)."""
    return _lut_activation(x, scale_bits, np.tanh)
