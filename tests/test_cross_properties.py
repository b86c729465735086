"""Cross-cutting property tests over random model topologies.

Uses the random-CNN generator to fuzz the *whole* stack: partitioning,
fusion, serialization, DOT export and full compile+execute must all
hold for arbitrary valid topologies, not just the MLPerf four.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import HTVM, compile_model
from repro.frontend.modelzoo import RandomNetConfig, random_cnn
from repro.ir import Composite, graph_from_dict, graph_to_dict, graph_to_dot
from repro.patterns import default_specs, partition
from repro.runtime import random_inputs, run_reference
from repro.soc import get_platform
from repro.transforms import fuse_cpu_ops


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_partition_preserves_semantics_on_random_nets(seed):
    graph = random_cnn(seed)
    pg = partition(graph, default_specs())
    feeds = random_inputs(graph, seed=seed + 1)
    np.testing.assert_array_equal(
        run_reference(graph, feeds), run_reference(pg, feeds))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_fusion_covers_every_call_exactly_once(seed):
    graph = random_cnn(seed)
    fused = fuse_cpu_ops(graph)
    assert not fused.calls()  # no top-level calls remain
    total_fused = sum(len(c.body.calls()) for c in fused.composites()
                      if isinstance(c, Composite))
    assert total_fused == len(graph.calls())


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_serialization_roundtrip_on_random_nets(seed):
    graph = random_cnn(seed)
    payload = json.dumps(graph_to_dict(graph))
    restored = graph_from_dict(json.loads(payload))
    feeds = random_inputs(graph, seed=seed)
    np.testing.assert_array_equal(
        run_reference(graph, feeds), run_reference(restored, feeds))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_dot_export_well_formed(seed):
    graph = random_cnn(seed)
    dot = graph_to_dot(partition(graph, default_specs()))
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")
    # every declared node id that appears in an edge is defined
    defined = {line.strip().split(" ")[0]
               for line in dot.splitlines()
               if line.strip().startswith("n") and "[" in line}
    for line in dot.splitlines():
        if "->" in line:
            src, dst = line.strip().rstrip(";").split(" -> ")
            assert src in defined and dst in defined


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000))
def test_compile_execute_bit_exact_on_random_nets(seed):
    graph = random_cnn(seed, RandomNetConfig(max_stages=4))
    soc = get_platform("diana", enable_analog=False)
    model = compile_model(graph, soc, HTVM.with_overrides(check_l2=False))
    feeds = random_inputs(graph, seed=seed + 5)
    from repro.runtime import Executor
    result = Executor(soc).run(model, feeds)
    np.testing.assert_array_equal(
        result.output, run_reference(model.graph, feeds))


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000))
def test_compile_with_tiny_l1_still_bit_exact(seed):
    """Forcing aggressive tiling must never change results."""
    from repro.errors import TilingError
    graph = random_cnn(seed, RandomNetConfig(max_stages=3))
    soc = get_platform("diana", enable_analog=False)
    cfg = HTVM.with_overrides(l1_budget=2048, check_l2=False)
    try:
        model = compile_model(graph, soc, cfg)
    except TilingError:
        return
    feeds = random_inputs(graph, seed=seed)
    from repro.runtime import Executor
    result = Executor(soc).run(model, feeds)
    np.testing.assert_array_equal(
        result.output, run_reference(model.graph, feeds))
