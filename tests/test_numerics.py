"""Tests for the shared integer numpy kernels, incl. property tests
against straightforward loop-nest oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import numerics as K
from repro.errors import SimulationError


def naive_conv2d(x, w, strides, padding, groups):
    """Oracle: one exact int64 dot product per output window.

    ``padding`` is ``(ph, pw)`` or ``((pt, pb), (pl, pr))``. Shares no
    code with the kernels (own ``np.pad``, integer matmul, no BLAS).
    """
    n, c, ih, iw = x.shape
    k, cg, fh, fw = w.shape
    sh, sw = strides
    (pt, pb), (pl, pr) = [(p, p) if np.isscalar(p) else p for p in padding]
    xp = np.pad(x.astype(np.int64), ((0, 0), (0, 0), (pt, pb), (pl, pr)))
    oh = (xp.shape[2] - fh) // sh + 1
    ow = (xp.shape[3] - fw) // sw + 1
    out = np.zeros((n, k, oh, ow), dtype=np.int64)
    kg = k // groups
    for g in range(groups):
        wg = w[g * kg:(g + 1) * kg].astype(np.int64).reshape(kg, -1)
        for oy in range(oh):
            for ox in range(ow):
                win = xp[:, g * cg:(g + 1) * cg, oy * sh:oy * sh + fh,
                         ox * sw:ox * sw + fw].reshape(n, -1)
                out[:, g * kg:(g + 1) * kg, oy, ox] = win @ wg.T
    return out.astype(np.int32)


conv_dims = st.tuples(
    st.sampled_from([1, 2, 3, 5, 8, 16]),   # C per group
    st.integers(1, 8),                      # K per group
    st.sampled_from([1, 2]),                # groups
    st.sampled_from([1, 5]),                # batch
    st.integers(3, 20), st.integers(3, 20),  # input H, W
    st.integers(1, 6), st.integers(1, 6),   # filter fh, fw
    st.integers(1, 3), st.integers(1, 3),   # strides
    st.tuples(*[st.integers(0, 2)] * 4),    # pt, pb, pl, pr
)


def _rand_conv(rng, n, c, k, cg, ih, iw, fh, fw):
    x = rng.integers(-128, 128, (n, c, ih, iw), dtype=np.int64)
    w = rng.integers(-128, 128, (k, cg, fh, fw), dtype=np.int64)
    return x.astype(np.int8), w.astype(np.int8)


class TestConv2dProperty:
    @settings(max_examples=60, deadline=None)
    @given(conv_dims, st.integers(0, 2 ** 31 - 1))
    def test_matches_naive(self, dims, seed):
        cg, kg, groups, n, ih, iw, fh, fw, sh, sw, (pt, pb, pl, pr) = dims
        if fh > ih + pt + pb or fw > iw + pl + pr:
            return
        rng = np.random.default_rng(seed)
        c, k = cg * groups, kg * groups
        x, w = _rand_conv(rng, n, c, k, cg, ih, iw, fh, fw)
        pads = ((pt, pb), (pl, pr))
        got = K.conv2d(x, w, (sh, sw), pads, groups)
        want = naive_conv2d(x, w, (sh, sw), pads, groups)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n,c,k,hw,f,s,branch,split", [
        (1, 8, 8, 12, 1, 1, "pointwise", False),
        (1, 8, 8, 12, 1, 2, "pointwise", False),
        (1, 8, 8, 12, 3, 2, "im2col", False),     # strided
        (1, 3, 16, 30, 3, 1, "im2col", True),     # C <= 4
        (1, 16, 16, 12, 3, 1, "im2col", True),    # small map (a tile)
        (1, 16, 16, 26, 3, 1, "per_tap", False),  # stride 1, large map
        (1, 16, 8, 26, 6, 1, "im2col", True),     # 36 taps
        (1, 16, 32, 16, 5, 1, "im2col", True),    # 25 taps
        (5, 16, 16, 26, 3, 1, "im2col", False),   # batched: never split
        (2, 16, 32, 24, 3, 2, "im2col", True),    # per-sample split loop
    ])
    def test_every_dense_branch(self, n, c, k, hw, f, s, branch, split):
        """Deterministic shapes that reach each dense-conv path,
        including im2col GEMMs split into one-BLAS-thread calls."""
        pads = ((1, 1), (0, 2))
        oh = (hw + 2 - f) // s + 1  # both pads total 2: square output
        if f == 1:
            assert branch == "pointwise"
        else:
            assert K._use_im2col(n, c, f * f, s, s, oh * oh) == (
                branch == "im2col")
        macs = k * c * f * f * oh * oh
        assert split == (branch == "im2col" and n < 4
                         and macs > K._BLAS_ONE_THREAD_MACS)
        rng = np.random.default_rng(hw * 31 + f)
        x, w = _rand_conv(rng, n, c, k, c, hw, hw, f, f)
        got = K.conv2d(x, w, (s, s), pads)
        np.testing.assert_array_equal(got, naive_conv2d(x, w, (s, s),
                                                        pads, 1))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 16), st.sampled_from([1, 5]), st.integers(3, 12),
           st.integers(1, 4), st.integers(1, 2),
           st.tuples(*[st.integers(0, 1)] * 4), st.integers(0, 12),
           st.booleans(), st.integers(0, 2 ** 31 - 1))
    def test_depthwise_raw_accumulator(self, c, n, hw, f, s, pads, shift,
                                       relu, seed):
        """Depthwise ``conv2d_acc`` hands back its raw (float)
        accumulator, and the float requantization tail equals the
        int32 one."""
        pt, pb, pl, pr = pads
        if f > hw + min(pt + pb, pl + pr):
            return
        rng = np.random.default_rng(seed)
        x, w = _rand_conv(rng, n, c, c, 1, hw, hw, f, f)
        bias = rng.integers(-5000, 5000, c).astype(np.int32)
        padding = ((pt, pb), (pl, pr))
        acc = K.conv2d_acc(x, w, (s, s), padding, groups=c)
        assert acc.dtype == np.float32
        got = K.requantize_acc(acc, bias, shift, relu,
                               acc_bound=(f * f) << 14)
        ref = K.conv2d(x, w, (s, s), padding, groups=c)
        np.testing.assert_array_equal(
            ref, naive_conv2d(x, w, (s, s), padding, c))
        np.testing.assert_array_equal(
            got, K.bias_requantize(ref, bias, shift, relu))

    def test_depthwise_equals_grouped(self):
        rng = np.random.default_rng(0)
        x = rng.integers(-128, 128, (1, 4, 6, 6)).astype(np.int8)
        w = rng.integers(-128, 128, (4, 1, 3, 3)).astype(np.int8)
        got = K.conv2d(x, w, (1, 1), (1, 1), groups=4)
        want = naive_conv2d(x, w, (1, 1), (1, 1), 4)
        np.testing.assert_array_equal(got, want)

    def test_group_mismatch_raises(self):
        with pytest.raises(SimulationError):
            K.conv2d(np.zeros((1, 3, 4, 4), np.int8),
                     np.zeros((4, 3, 1, 1), np.int8), groups=2)


class TestDense:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 32), st.integers(1, 32), st.integers(0, 2 ** 31 - 1))
    def test_matches_matmul(self, c, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(-128, 128, (1, c)).astype(np.int8)
        w = rng.integers(-128, 128, (k, c)).astype(np.int8)
        got = K.dense(x, w)
        want = x.astype(np.int64) @ w.astype(np.int64).T
        np.testing.assert_array_equal(got, want.astype(np.int32))


class TestRightShift:
    def test_round_half_up(self):
        x = np.array([3, -3, 2, -2, 1, -1], dtype=np.int32)
        got = K.right_shift(x, 1)
        # (x + 1) >> 1
        np.testing.assert_array_equal(got, [2, -1, 1, -1, 1, 0])

    def test_zero_shift_identity(self):
        x = np.array([5, -7], dtype=np.int32)
        np.testing.assert_array_equal(K.right_shift(x, 0), x)

    def test_no_rounding_mode(self):
        x = np.array([3, -3], dtype=np.int32)
        np.testing.assert_array_equal(K.right_shift(x, 1, rounding=False),
                                      [1, -2])

    def test_negative_shift_raises(self):
        with pytest.raises(SimulationError):
            K.right_shift(np.array([1]), -1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-(1 << 20), 1 << 20), st.integers(1, 16))
    def test_matches_float_rounding(self, value, shift):
        got = int(K.right_shift(np.array([value], np.int32), shift)[0])
        want = int(np.floor((value + (1 << (shift - 1))) / (1 << shift)))
        assert got == want


class TestPooling:
    def test_avg_pool_rounding(self):
        x = np.array([[[[1, 2], [3, 5]]]], dtype=np.int8)
        out = K.avg_pool2d(x, (2, 2), (2, 2), (0, 0))
        # (1+2+3+5+2)//4 = 3 (round-half-up)
        assert out[0, 0, 0, 0] == 3

    def test_max_pool_padding_never_wins(self):
        x = np.full((1, 1, 2, 2), -5, dtype=np.int8)
        out = K.max_pool2d(x, (2, 2), (2, 2), (1, 1))
        assert out.max() == -5

    def test_global_avg_pool(self):
        x = np.arange(16, dtype=np.int8).reshape(1, 1, 4, 4)
        out = K.global_avg_pool2d(x)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 8  # (120 + 8) // 16

    def test_avg_pool_negative_round(self):
        x = np.full((1, 1, 2, 2), -1, dtype=np.int8)
        out = K.avg_pool2d(x, (2, 2), (2, 2), (0, 0))
        assert out[0, 0, 0, 0] == -1  # (-4 + 2) // 4 = -1 (floor)


class TestSoftmaxRequant:
    def test_softmax_sums_to_one(self):
        x = np.array([[1, 2, 3, 4]], dtype=np.int8)
        out = K.softmax(x)
        assert out.dtype == np.float32
        assert abs(out.sum() - 1.0) < 1e-5

    def test_softmax_overflow_safe(self):
        x = np.array([[127, -128]], dtype=np.int8)
        out = K.softmax(x)
        assert np.isfinite(out).all()

    def test_requantize_clip_and_relu(self):
        acc = np.array([10000, -10000, 64], dtype=np.int32)
        out = K.requantize(acc, 2, relu_after=True)
        assert out.dtype == np.int8
        np.testing.assert_array_equal(out, [127, 0, 16])

    def test_requantize_int7_range(self):
        acc = np.array([10000, -10000], dtype=np.int32)
        out = K.requantize(acc, 0, False, a_min=-64, a_max=63)
        np.testing.assert_array_equal(out, [63, -64])


class TestPad:
    def test_pad_nchw_identity(self):
        x = np.ones((1, 2, 3, 3), np.int8)
        assert K.pad_nchw(x, (0, 0)) is x

    def test_pad_values(self):
        x = np.ones((1, 1, 2, 2), np.int8)
        out = K.pad_nchw(x, (1, 1), value=7)
        assert out.shape == (1, 1, 4, 4)
        assert out[0, 0, 0, 0] == 7


class TestPoolingProperty:
    """Sliding-window pooling vs. straightforward per-tap loop oracles."""

    @staticmethod
    def _naive_avg(x, pool, strides, padding):
        fh, fw = pool
        sh, sw = strides
        xp = K.pad_nchw(x.astype(np.int32), padding)
        oh = (xp.shape[2] - fh) // sh + 1
        ow = (xp.shape[3] - fw) // sw + 1
        acc = np.zeros((x.shape[0], x.shape[1], oh, ow), dtype=np.int32)
        for dy in range(fh):
            for dx in range(fw):
                acc += xp[:, :, dy:dy + sh * oh:sh, dx:dx + sw * ow:sw]
        count = fh * fw
        return np.floor_divide(acc + count // 2, count).astype(x.dtype)

    @staticmethod
    def _naive_max(x, pool, strides, padding):
        fh, fw = pool
        sh, sw = strides
        lo = np.iinfo(x.dtype).min
        xp = K.pad_nchw(x, padding, value=lo)
        oh = (xp.shape[2] - fh) // sh + 1
        ow = (xp.shape[3] - fw) // sw + 1
        out = np.full((x.shape[0], x.shape[1], oh, ow), lo, dtype=x.dtype)
        for dy in range(fh):
            for dx in range(fw):
                np.maximum(out, xp[:, :, dy:dy + sh * oh:sh,
                                   dx:dx + sw * ow:sw], out=out)
        return out

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(4, 9), st.integers(2, 3),
           st.integers(1, 2), st.integers(0, 1), st.integers(0, 2 ** 31 - 1))
    def test_pools_match_naive(self, c, hw, f, s, p, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(-128, 128, (2, c, hw, hw), dtype=np.int64)
        x = x.astype(np.int8)
        np.testing.assert_array_equal(
            K.avg_pool2d(x, (f, f), (s, s), (p, p)),
            self._naive_avg(x, (f, f), (s, s), (p, p)))
        np.testing.assert_array_equal(
            K.max_pool2d(x, (f, f), (s, s), (p, p)),
            self._naive_max(x, (f, f), (s, s), (p, p)))


class TestAsymmetricPad:
    def test_pad_nchw_asymmetric(self):
        x = np.arange(4, dtype=np.int8).reshape(1, 1, 2, 2)
        out = K.pad_nchw(x, ((1, 0), (0, 2)), value=9)
        assert out.shape == (1, 1, 3, 4)
        np.testing.assert_array_equal(out[0, 0, 0], [9, 9, 9, 9])
        np.testing.assert_array_equal(out[0, 0, 1], [0, 1, 9, 9])

    def test_asymmetric_matches_np_pad(self):
        x = np.arange(12, dtype=np.int8).reshape(1, 2, 2, 3)
        want = np.pad(x, ((0, 0), (0, 0), (2, 1), (1, 0)),
                      constant_values=5)
        np.testing.assert_array_equal(
            K.pad_nchw(x, ((2, 1), (1, 0)), value=5), want)

    def test_symmetric_form_unchanged(self):
        x = np.ones((1, 1, 2, 2), np.int8)
        np.testing.assert_array_equal(
            K.pad_nchw(x, (1, 2)), K.pad_nchw(x, ((1, 1), (2, 2))))


class TestBiasRequantize:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 12), st.booleans(), st.booleans(),
           st.integers(0, 2 ** 31 - 1))
    def test_matches_unfused_sequence(self, shift, relu, with_bias, seed):
        rng = np.random.default_rng(seed)
        acc = rng.integers(-(1 << 20), 1 << 20, (1, 5, 4, 4),
                           dtype=np.int64).astype(np.int32)
        bias = (rng.integers(-(1 << 10), 1 << 10, 5,
                             dtype=np.int64).astype(np.int32)
                if with_bias else None)
        want = K.bias_add(acc, bias) if bias is not None else acc
        want = K.clip(K.right_shift(want, shift), -128, 127).astype(np.int8)
        if relu:
            want = np.maximum(want, 0)
        before = acc.copy()
        got = K.bias_requantize(acc, bias, shift, relu)
        np.testing.assert_array_equal(got, want)
        # the in-place clamp works on a copy, never the caller's array
        np.testing.assert_array_equal(acc, before)
