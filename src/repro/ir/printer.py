"""Human-readable text form of IR graphs, in the spirit of Relay text.

The printer assigns SSA-style names (``%0``, ``%1`` …) in topological
order. Composite bodies are printed indented under their call site so a
partitioned graph reads like the paper's Fig. 1: green (offloaded) blocks
inline within the red (CPU) flow.
"""

from __future__ import annotations

from typing import Dict

from .graph import Graph
from .node import Call, Composite, Constant, Var


def _fmt_attrs(attrs: Dict) -> str:
    if not attrs:
        return ""
    parts = [f"{k}={v!r}" for k, v in sorted(attrs.items()) if v is not None]
    return ", " + ", ".join(parts) if parts else ""


def graph_to_text(graph: Graph, indent: str = "") -> str:
    """Render ``graph`` as SSA-style text."""
    names: Dict[int, str] = {}
    lines = []
    counter = 0

    header = ", ".join(f"%{v.name}: {v.ttype}" for v in graph.inputs)
    lines.append(f"{indent}fn {graph.name}({header}) {{")

    for node in graph.topo_order():
        if isinstance(node, Var):
            names[node.node_id] = f"%{node.name}"
            continue
        if isinstance(node, Constant):
            names[node.node_id] = f"const<{node.ttype}>"
            continue
        name = f"%{counter}"
        counter += 1
        names[node.node_id] = name
        args = ", ".join(names[i.node_id] for i in node.inputs)
        if isinstance(node, Call):
            lines.append(
                f"{indent}  {name} = {node.op}({args}{_fmt_attrs(node.attrs)})"
                f"  /* {node.ttype} */"
            )
        elif isinstance(node, Composite):
            lines.append(
                f"{indent}  {name} = composite[{node.pattern_name} @ {node.target}]"
                f"({args})  /* {node.ttype} */"
            )
            lines.append(graph_to_text(node.body, indent + "    "))
    lines.append(f"{indent}  return {names[graph.output.node_id]}")
    lines.append(f"{indent}}}")
    return "\n".join(lines)

