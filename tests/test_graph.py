"""Graph construction, traversal, rewriting, builder, printing."""

import numpy as np
import pytest

from repro.errors import IRError
from repro.ir import (
    Call, Composite, Constant, ConstantTensor, Graph, GraphBuilder, Node,
    TensorType, Var, graph_to_text,
)
from helpers import build_small_cnn


class TestTopoOrder:
    def test_inputs_before_users(self, small_cnn):
        order = small_cnn.topo_order()
        position = {n.node_id: i for i, n in enumerate(order)}
        for node in order:
            for inp in node.inputs:
                assert position[inp.node_id] < position[node.node_id]

    def test_output_last(self, small_cnn):
        assert small_cnn.topo_order()[-1] is small_cnn.output

    def test_no_duplicates(self, small_cnn):
        ids = [n.node_id for n in small_cnn.topo_order()]
        assert len(ids) == len(set(ids))

    def test_deep_graph_no_recursion_error(self):
        b = GraphBuilder()
        x = b.input("data", (1, 8), "int8")
        node = x
        for _ in range(3000):
            node = b.call("nn.relu", [node])
        g = b.finish(node)
        assert len(g.topo_order()) == 3001


class TestValidation:
    def test_free_variable_detected(self):
        x = Var("x", TensorType((1, 4), "int8"))
        y = Var("y", TensorType((1, 4), "int8"))
        out = Call("add", [x, y])
        with pytest.raises(IRError, match="free variables"):
            Graph([x], out)

    def test_non_var_input_rejected(self):
        c = Constant(ConstantTensor(np.zeros(4, np.int8)))
        with pytest.raises(IRError):
            Graph([c], c)


class TestAccounting:
    def test_total_macs(self, small_cnn):
        assert small_cnn.total_macs() > 0

    def test_weight_bytes_counts_composites(self, small_cnn):
        from repro.patterns import default_specs, partition
        pg = partition(small_cnn, default_specs())
        assert pg.weight_bytes() == small_cnn.weight_bytes()

    def test_users_map(self, small_cnn):
        users = small_cnn.users()
        # every non-output node has at least one user
        for node in small_cnn.topo_order():
            if node is small_cnn.output:
                continue
            assert users[node.node_id], f"{node!r} has no users"


class TestRewrite:
    def test_identity_rewrite_preserves_semantics(self, small_cnn):
        from repro.runtime import random_inputs, run_reference
        g2 = small_cnn.rewrite(lambda node, new_inputs: None)
        feeds = random_inputs(small_cnn, seed=0)
        np.testing.assert_array_equal(
            run_reference(small_cnn, feeds), run_reference(g2, feeds))

    def test_replace_op(self):
        b = GraphBuilder()
        x = b.input("x", (1, 4), "int8")
        g = b.finish(b.call("nn.relu", [x]))

        def swap(node, new_inputs):
            if isinstance(node, Call) and node.op == "nn.relu":
                return Call("clip", new_inputs, {"a_min": 0, "a_max": 127})
            return None

        g2 = g.rewrite(swap)
        assert [c.op for c in g2.calls()] == ["clip"]

    def test_rewrite_may_not_replace_inputs(self, small_cnn):
        def bad(node, new_inputs):
            if isinstance(node, Var):
                return Call("nn.relu", [node])
            return None

        with pytest.raises(IRError):
            small_cnn.rewrite(bad)


class TestBuilder:
    def test_requant_chain_structure(self):
        b = GraphBuilder(seed=0)
        x = b.input("x", (1, 4, 8, 8), "int8")
        y = b.conv2d_requant(x, 4, kernel=3, padding=(1, 1), relu=True)
        ops = [c.op for c in b.finish(y).calls()]
        assert ops == ["nn.conv2d", "nn.bias_add", "right_shift", "clip",
                       "cast", "clip"]

    def test_no_relu_omits_final_clip(self):
        b = GraphBuilder(seed=0)
        x = b.input("x", (1, 4, 8, 8), "int8")
        y = b.conv2d_requant(x, 4, kernel=3, padding=(1, 1), relu=False)
        ops = [c.op for c in b.finish(y).calls()]
        assert ops[-1] == "cast"

    def test_int7_requant_clips_to_7bit(self):
        b = GraphBuilder(seed=0)
        x = b.input("x", (1, 4, 8, 8), "int7")
        y = b.conv2d_requant(x, 4, kernel=1, out_dtype="int7")
        clips = [c for c in b.finish(y).calls() if c.op == "clip"]
        assert clips[0].attrs["a_min"] == -64
        assert clips[0].attrs["a_max"] == 63

    def test_dwconv_groups(self):
        b = GraphBuilder(seed=0)
        x = b.input("x", (1, 8, 8, 8), "int8")
        y = b.dwconv2d_requant(x, kernel=3, padding=(1, 1))
        conv = [c for c in b.finish(y).calls() if c.op == "nn.conv2d"][0]
        assert conv.attrs["groups"] == 8

    def test_pair_normalization(self):
        b = GraphBuilder(seed=0)
        x = b.input("x", (1, 4, 9, 9), "int8")
        y = b.conv2d_requant(x, 4, kernel=3, strides=2, padding=1)
        assert y.shape[2:] == (5, 5) or y.shape[2:] == (5, 5)


class TestPrinter:
    def test_text_contains_ops(self, small_cnn):
        text = graph_to_text(small_cnn)
        assert "nn.conv2d" in text
        assert "fn small_cnn" in text
        assert "return" in text

    def test_partitioned_graph_prints_bodies(self, small_cnn):
        from repro.patterns import default_specs, partition
        text = graph_to_text(partition(small_cnn, default_specs()))
        assert "composite[htvm.qconv2d" in text
