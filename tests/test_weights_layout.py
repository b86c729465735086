"""Weight-byte rules: padding and sizes, and one owner per rule."""

import ast
import pathlib

import numpy as np
import pytest

from repro.dory import (
    LayerSpec, fits_weight_memory, l1_weight_bytes,
    l2_weight_bytes, macro_rows, make_conv_spec, make_dense_spec,
)
from repro.soc import DEFAULT_PARAMS


def _ternary(c, k, f):
    pad = (1, 1) if f == 3 else (0, 0)
    return make_conv_spec("t", c, k, 8, 8, fy=f, fx=f, padding=pad,
                          weight_dtype="ternary")


class TestAnalogLayout:
    def test_conv_pads_to_full_macro(self):
        spec = _ternary(16, 16, 3)
        assert macro_rows(spec, 16) == 16 * 9
        assert (l2_weight_bytes(spec, "soc.analog", DEFAULT_PARAMS)
                == DEFAULT_PARAMS.ana_row_pad_conv * 16 * 2 // 8
                == 1152 * 16 * 2 // 8)

    def test_pw_pads_to_quadrant(self):
        assert (l2_weight_bytes(_ternary(16, 16, 1), "soc.analog",
                                DEFAULT_PARAMS)
                == DEFAULT_PARAMS.ana_row_pad_pw * 16 * 2 // 8
                == 288 * 16 * 2 // 8)

    def test_dense_pads_to_quadrant(self):
        fc = make_dense_spec("fc", 640, 10, weight_dtype="ternary")
        assert macro_rows(fc, 640) == 640
        assert (l2_weight_bytes(fc, "soc.analog", DEFAULT_PARAMS)
                == 864 * 10 * 2 // 8)

    def test_matches_size_model(self):
        for c, k, f, padded_rows in ((16, 16, 3, 1152), (64, 32, 1, 288),
                                     (7, 5, 3, 1152), (300, 8, 1, 576),
                                     (200, 4, 3, 2304)):
            assert (l2_weight_bytes(_ternary(c, k, f), "soc.analog",
                                    DEFAULT_PARAMS)
                    == (padded_rows * k * 2 + 7) // 8)

    def test_weights_live_in_the_macro_not_l1(self):
        assert l1_weight_bytes(_ternary(64, 64, 3), 64, 64, "soc.analog") == 0

    def test_ternary_is_smaller_than_int8(self):
        # 2-bit cells beat int8 even with the macro row padding
        ana = l2_weight_bytes(_ternary(64, 64, 3), "soc.analog",
                              DEFAULT_PARAMS)
        dig = l2_weight_bytes(make_conv_spec("t", 64, 64, 8, 8,
                                             padding=(1, 1)),
                              "soc.digital", DEFAULT_PARAMS)
        assert ana < dig


class TestDigitalLayout:
    """Off the analog core L2 holds the int8 weights unpadded."""

    def test_aligned_no_padding(self):
        spec = make_conv_spec("pw", 32, 16, 8, 8, fy=1, fx=1)
        assert l2_weight_bytes(spec, "soc.digital", DEFAULT_PARAMS) == 16 * 32

    def test_dense_as_1x1(self):
        fc = make_dense_spec("fc", 8, 8)
        pw = make_conv_spec("pw", 8, 8, 4, 4, fy=1, fx=1)
        assert (l1_weight_bytes(fc, 8, 8, "soc.digital")
                == l1_weight_bytes(pw, 8, 8, "soc.digital") == 64)

    @pytest.mark.parametrize("spec,shape", [
        (make_conv_spec("c", 10, 10, 8, 8, padding=(1, 1)), (10, 10, 3, 3)),
        (make_conv_spec("dw", 64, 64, 8, 8, padding=(1, 1), depthwise=True),
         (64, 1, 3, 3)),
        (make_dense_spec("fc", 640, 128), (128, 640)),
    ])
    def test_l2_bytes_equal_the_weight_tensor(self, spec, shape):
        for target in ("soc.digital", "my.plugin"):
            assert (l2_weight_bytes(spec, target, DEFAULT_PARAMS)
                    == int(np.prod(shape)))

    def test_add_has_no_weights(self):
        spec = LayerSpec("a", "add", 8, 8, iy=8, ix=8, oy=8, ox=8)
        for target in ("soc.digital", "soc.analog"):
            assert l2_weight_bytes(spec, target, DEFAULT_PARAMS) == 0

    def test_tile_rule_on_columns_matches_scalars(self):
        spec = make_conv_spec("c", 64, 32, 16, 16, padding=(1, 1))
        c = np.array([1, 8, 64], dtype=np.int64)
        k = np.array([32, 16, 3], dtype=np.int64)
        cols = l1_weight_bytes(spec, c, k, "soc.digital")
        assert cols.tolist() == [l1_weight_bytes(spec, int(a), int(b),
                                                 "soc.digital")
                                 for a, b in zip(c, k)]


class TestWeightMemory:
    def test_only_the_digital_core_has_a_capacity(self):
        cap = DEFAULT_PARAMS.dig_weight_bytes
        assert fits_weight_memory(cap, "soc.digital", DEFAULT_PARAMS)
        assert not fits_weight_memory(cap + 1, "soc.digital", DEFAULT_PARAMS)
        assert fits_weight_memory(cap + 1, "soc.analog", DEFAULT_PARAMS)
        cols = fits_weight_memory(np.array([cap, cap + 1]), "soc.digital",
                                  DEFAULT_PARAMS)
        assert cols.tolist() == [True, False]


# -- one owner per rule -------------------------------------------------------

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
OWNERS = {"dory/weights.py", "soc/params.py"}
PAD_FIELDS = {"ana_row_pad_conv", "ana_row_pad_pw"}
#: factors that make a fy*fx product a MAC or pass count, not a weight size
PIXEL_FACTORS = {"oy", "ox", "oy_t", "ox_t", "out_rows", "out_cols"}
TILE_FACTORS = {"c_t", "k_t"}


def _factors(node):
    """Names and attribute names of one ``*`` product, flattened."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _factors(node.left) | _factors(node.right)
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_weight_rules_have_one_owner():
    """Only ``dory/weights.py`` pads macro rows or forms a weight tile.

    A weight-tile or macro-row product multiplies ``fy * fx`` by a
    channel tile (``c_t`` / ``k_t``) and by no output-pixel extent.
    """
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in OWNERS:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in PAD_FIELDS:
                offenders.append(f"{rel}:{node.lineno} .{node.attr}")
            elif (isinstance(node, ast.BinOp)
                  and isinstance(node.op, ast.Mult)):
                names = _factors(node)
                if ({"fy", "fx"} <= names and names & TILE_FACTORS
                        and not names & PIXEL_FACTORS):
                    offenders.append(f"{rel}:{node.lineno} fy*fx weight bytes")
    assert not offenders, offenders
