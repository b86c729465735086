"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import pathlib
import sys

import pytest

# Several tests spawn subprocesses (CLI invocations, example scripts).
# pytest's ``pythonpath`` ini option puts src/ on *this* process's
# sys.path but not in the environment, so export it for children too —
# this keeps a bare ``python -m pytest`` equivalent to
# ``PYTHONPATH=src python -m pytest``.
_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
if _SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + ([os.environ["PYTHONPATH"]]
                  if os.environ.get("PYTHONPATH") else []))

from helpers import assert_compiled_matches_reference, build_small_cnn  # noqa: E402,F401 (re-export for stragglers)
from repro.soc import get_platform  # noqa: E402


@pytest.fixture(scope="session")
def shared_native_cache(tmp_path_factory):
    """One native library cache for the whole run: cells of the same
    fingerprint are built once, whichever test module asks first, like
    real serving hosts do."""
    return str(tmp_path_factory.mktemp("native-cache"))


@pytest.fixture
def soc():
    """A full DIANA (digital + analog)."""
    return get_platform("diana")


@pytest.fixture
def digital_soc():
    return get_platform("diana", enable_analog=False)


@pytest.fixture
def analog_soc():
    return get_platform("diana", enable_digital=False)


@pytest.fixture
def cpu_soc():
    return get_platform("diana", enable_digital=False, enable_analog=False)


@pytest.fixture
def small_cnn():
    return build_small_cnn()
