"""Shared test helpers, importable from both tests/ and benchmarks/.

These live outside conftest.py on purpose: both tests/ and benchmarks/
carry a conftest.py, and a plain ``from conftest import ...`` resolves
to whichever directory pytest happened to visit first
(``sys.modules["conftest"]`` is claimed once per process). A uniquely
named module has no such ordering hazard.
"""

from __future__ import annotations

import numpy as np

from repro.core.compiler import compile_model
from repro.core.config import HTVM
from repro.ir import GraphBuilder
from repro.runtime import Executor, random_inputs, run_reference


def build_small_cnn(seed: int = 1, channels: int = 16, hw: int = 16):
    """A small quantized CNN exercising conv/add/pool/dense/softmax."""
    b = GraphBuilder(name="small_cnn", seed=seed)
    x = b.input("data", (1, 3, hw, hw), "int8")
    y = b.conv2d_requant(x, channels, kernel=3, padding=(1, 1))
    z = b.conv2d_requant(y, channels, kernel=3, padding=(1, 1), relu=False)
    r = b.add_requant(y, z, shift=1)
    r = b.max_pool2d(r, 2)
    r = b.flatten(r)
    r = b.dense_requant(r, 10)
    r = b.softmax(r)
    return b.finish(r)


def mobilenet_head_chain(length: int):
    """LayerSpecs of MobileNet's first ``length`` fusable layers.

    Found the way the compiler finds depth-first chains
    (:func:`~repro.extensions.depthfirst.chain_runs_from_steps`), over
    the int8 model compiled for the digital core.
    """
    from repro.extensions.depthfirst import chain_runs_from_steps
    from repro.frontend.modelzoo import MLPERF_TINY
    from repro.soc import get_platform

    model = compile_model(MLPERF_TINY["mobilenet"](precision="int8"),
                          get_platform("diana", enable_analog=False), HTVM)
    run = chain_runs_from_steps(model.steps, model.output_name)[0]
    return [model.steps[i].spec for i in run[:length]]


def assert_compiled_matches_reference(graph, soc, config=HTVM, seed=3):
    """Compile, execute on the SoC sim, compare against the interpreter."""
    model = compile_model(graph, soc, config)
    feeds = random_inputs(graph, seed=seed)
    result = Executor(soc).run(model, feeds)
    reference = run_reference(model.graph, feeds)
    np.testing.assert_array_equal(
        np.asarray(result.output), np.asarray(reference))
    return model, result
