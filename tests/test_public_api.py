"""Public API surface tests: imports, docstrings, quickstart flow."""

import inspect

import numpy as np
import pytest

import repro


class TestSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackages_importable(self):
        import repro.baselines
        import repro.codegen
        import repro.core
        import repro.dory
        import repro.eval
        import repro.frontend
        import repro.ir
        import repro.mapping
        import repro.numerics
        import repro.patterns
        import repro.runtime
        import repro.soc
        import repro.transforms

    def test_public_items_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.ismodule(obj) or not callable(obj):
                continue
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_module_docstrings(self):
        import repro.dory.tiler
        import repro.soc.params
        for mod in (repro, repro.dory.tiler, repro.soc.params):
            assert (mod.__doc__ or "").strip()


class TestQuickstartFlow:
    def test_readme_quickstart_works(self):
        from repro import Executor, HTVM, compile_model, get_platform
        from repro.frontend.modelzoo import resnet8
        from repro.runtime import random_inputs

        graph = resnet8(precision="int8")
        soc = get_platform("diana")
        model = compile_model(graph, soc, HTVM)
        result = Executor(soc).run(model, random_inputs(graph))
        assert result.total_cycles > 0
        assert result.output.shape == (1, 10)

    def test_error_hierarchy(self):
        from repro import (
            OutOfMemoryError, ReproError, ShapeError, TilingError,
        )
        assert issubclass(OutOfMemoryError, ReproError)
        assert issubclass(ShapeError, ReproError)
        assert issubclass(TilingError, ReproError)

