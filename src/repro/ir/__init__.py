"""Dataflow IR: the reproduction's stand-in for TVM's Relay.

Public surface:

* dtypes — :func:`dtype`, :data:`INT8`, :data:`TERNARY`, …
* tensors — :class:`TensorType`, :class:`ConstantTensor`
* nodes — :class:`Var`, :class:`Constant`, :class:`Call`, :class:`Composite`
* :class:`Graph` with traversal/rewrite, :class:`GraphBuilder`
* text printing and JSON serialization
"""

from .dtypes import (
    DataType, FLOAT32, INT7, INT8, INT16, INT32, TERNARY, all_dtypes, dtype,
    is_integer,
)
from .tensor import ConstantTensor, TensorType, random_constant
from .op import OpDef, all_ops, conv2d_output_hw, get_op, register_op
from .node import Call, Composite, Constant, Node, Var
from .graph import Graph
from .builder import GraphBuilder
from .printer import graph_to_text
from .serialization import (
    decode_array, encode_array, graph_digest, graph_from_dict, graph_to_dict,
    load_graph, save_graph,
)
from .dot import graph_to_dot, save_dot

__all__ = [
    "DataType", "FLOAT32", "INT7", "INT8", "INT16", "INT32", "TERNARY",
    "all_dtypes", "dtype", "is_integer",
    "ConstantTensor", "TensorType", "random_constant",
    "OpDef", "all_ops", "conv2d_output_hw", "get_op", "register_op",
    "Call", "Composite", "Constant", "Node", "Var",
    "Graph", "GraphBuilder", "graph_to_text",
    "decode_array", "encode_array", "graph_digest",
    "graph_from_dict", "graph_to_dict", "load_graph", "save_graph",
    "graph_to_dot", "save_dot",
]
