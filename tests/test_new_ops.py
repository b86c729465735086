"""Tests for the extended operator set: concatenate, LUT activations."""

import numpy as np
import pytest

from repro import numerics as K
from repro.core import HTVM, compile_model
from repro.errors import ShapeError
from repro.ir import Call, GraphBuilder, TensorType, Var
from repro.runtime import Executor, random_inputs, run_reference
from repro.soc import get_platform


def var(shape, dt="int8", name="x"):
    return Var(name, TensorType(shape, dt))


class TestConcatenate:
    def test_shape_inference(self):
        c = Call("concatenate", [var((1, 4, 8, 8)), var((1, 6, 8, 8), name="y")])
        assert c.shape == (1, 10, 8, 8)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            Call("concatenate", [var((1, 4, 8, 8)), var((1, 4, 4, 4), name="y")])

    def test_dtype_mismatch(self):
        with pytest.raises(ShapeError):
            Call("concatenate", [var((1, 4)), var((1, 4), "int7", name="y")],
                 {"axis": 1})

    def test_numerics(self):
        a = np.ones((1, 2, 2, 2), np.int8)
        b = np.zeros((1, 3, 2, 2), np.int8)
        out = K.concatenate(a, b)
        assert out.shape == (1, 5, 2, 2)
        assert out[0, 0, 0, 0] == 1 and out[0, 4, 0, 0] == 0

    def test_end_to_end(self):
        b = GraphBuilder(seed=0)
        x = b.input("x", (1, 4, 8, 8), "int8")
        left = b.conv2d_requant(x, 4, kernel=1)
        right = b.conv2d_requant(x, 4, kernel=3, padding=(1, 1))
        merged = b.concatenate(left, right)
        out = b.conv2d_requant(merged, 4, kernel=1)
        g = b.finish(out)
        soc = get_platform("diana", enable_analog=False)
        model = compile_model(g, soc, HTVM)
        feeds = random_inputs(g, seed=1)
        result = Executor(soc).run(model, feeds)
        np.testing.assert_array_equal(
            result.output, run_reference(model.graph, feeds))


class TestLutActivations:
    def test_sigmoid_range_and_sign(self):
        x = np.array([-128, -16, 0, 16, 127], dtype=np.int8)
        out = K.sigmoid_lut(x, scale_bits=4)
        assert out.dtype == np.int8
        # sigmoid(0) = 0.5 -> 64; monotone; saturates near 0 / 127
        assert out[2] == 64
        assert (np.diff(out.astype(int)) >= 0).all()
        assert out[0] <= 1 and out[-1] >= 126

    def test_tanh_odd_symmetry(self):
        x = np.arange(-100, 101, dtype=np.int8)
        out = K.tanh_lut(x, scale_bits=4)
        flipped = K.tanh_lut((-x).astype(np.int8), scale_bits=4)
        np.testing.assert_allclose(out.astype(int), -flipped.astype(int),
                                   atol=1)
        assert out[100] == 0  # tanh(0) = 0

    def test_scale_bits_change_curve(self):
        x = np.array([16], dtype=np.int8)
        steep = K.sigmoid_lut(x, scale_bits=2)   # v = 4.0
        shallow = K.sigmoid_lut(x, scale_bits=6)  # v = 0.25
        assert steep[0] > shallow[0]

    def test_fusible(self):
        from repro.transforms import fuse_cpu_ops
        b = GraphBuilder(seed=0)
        x = b.input("x", (1, 8, 4, 4), "int8")
        y = b.conv2d_requant(x, 8, kernel=1, relu=False)
        g = b.finish(b.sigmoid(y))
        fused = fuse_cpu_ops(g)
        # sigmoid fuses into the conv's kernel chain
        assert len(fused.composites()) == 1

    def test_int32_input_rejected(self):
        with pytest.raises(ShapeError):
            Call("nn.sigmoid_lut", [var((4,), "int32")])

    def test_end_to_end_gated_model(self):
        """A little gated block: conv -> sigmoid gate -> concat."""
        b = GraphBuilder(seed=3)
        x = b.input("x", (1, 4, 8, 8), "int8")
        features = b.conv2d_requant(x, 8, kernel=3, padding=(1, 1),
                                    relu=False)
        gate = b.sigmoid(features)
        act = b.tanh(features)
        merged = b.concatenate(gate, act)
        out = b.conv2d_requant(merged, 4, kernel=1)
        g = b.finish(out)
        soc = get_platform("diana", enable_analog=False)
        model = compile_model(g, soc, HTVM)
        feeds = random_inputs(g, seed=4)
        result = Executor(soc).run(model, feeds)
        np.testing.assert_array_equal(
            result.output, run_reference(model.graph, feeds))

    def test_serialization_roundtrip(self):
        import json
        from repro.ir import graph_from_dict, graph_to_dict
        b = GraphBuilder(seed=0)
        x = b.input("x", (1, 4), "int8")
        g = b.finish(b.tanh(b.sigmoid(x)))
        g2 = graph_from_dict(json.loads(json.dumps(graph_to_dict(g))))
        feeds = random_inputs(g, seed=0)
        np.testing.assert_array_equal(
            run_reference(g, feeds), run_reference(g2, feeds))
