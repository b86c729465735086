"""BYOC-style graph partitioning.

Given a prioritized list of :class:`PatternSpec`, the partitioner finds
non-overlapping pattern matches (greedily, from the graph output upward,
so longer variants of a pattern win) and extracts each match into a
:class:`~repro.ir.node.Composite` with its own body graph. This mirrors
TVM's ``MergeComposite`` + ``PartitionGraph`` passes that HTVM's
dispatching builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..errors import PatternError
from ..ir import Call, Composite, Constant, Graph, Node, Var
from .lang import MatchResult, Pattern


@dataclass
class PatternSpec:
    """A named pattern with an optional structural predicate.

    Attributes:
        name: composite name recorded on extracted nodes, e.g.
            ``"htvm.qconv2d"``.
        pattern: the pattern to match.
        check: optional predicate over the :class:`MatchResult`; a match
            is only extracted if it returns True. This is where simple
            structural vetoes live — full accelerator-aware rules run
            later, in :mod:`repro.mapping`.
    """

    name: str
    pattern: Pattern
    check: Optional[Callable[[MatchResult], bool]] = None


def _is_extractable(match: MatchResult, users: Dict[int, List[Node]],
                    claimed: set) -> bool:
    """A match is extractable iff no interior value escapes it.

    Every interior node except the root must be consumed only by other
    interior nodes; otherwise extraction would have to duplicate
    computation. Nodes already claimed by an earlier match are off-limits.
    """
    interior_ids = match.interior_ids
    if interior_ids & claimed:
        return False
    root_id = match.root.node_id
    for node in match.interior:
        if node.node_id == root_id:
            continue
        for user in users[node.node_id]:
            if user.node_id not in interior_ids:
                return False
    return True


def _extract_body(match: MatchResult, name: str) -> Graph:
    """Clone the matched region into a standalone body graph."""
    param_of: Dict[int, Var] = {}
    params: List[Var] = []
    for i, ext in enumerate(match.inputs):
        var = Var(f"in{i}", ext.ttype)
        param_of[ext.node_id] = var
        params.append(var)

    interior_ids = match.interior_ids
    memo: Dict[int, Node] = {}

    def clone(node: Node) -> Node:
        if node.node_id in param_of:
            return param_of[node.node_id]
        if node.node_id in memo:
            return memo[node.node_id]
        if isinstance(node, Constant):
            memo[node.node_id] = node  # constants are immutable; share them
            return node
        if not isinstance(node, Call) or node.node_id not in interior_ids:
            raise PatternError(
                f"match for {name!r} references unmatched non-input node {node!r}"
            )
        new = Call(node.op, [clone(i) for i in node.inputs], node.attrs)
        memo[node.node_id] = new
        return new

    return Graph(params, clone(match.root), name=name)


def find_matches(graph: Graph, specs: List[PatternSpec]) -> List[MatchResult]:
    """All non-overlapping extractable matches, output-to-input order."""
    users = graph.users()
    claimed: set = set()
    matches: List[MatchResult] = []
    for node in reversed(graph.topo_order()):
        if node.node_id in claimed or not isinstance(node, Call):
            continue
        for spec in specs:
            m = spec.pattern.match(node)
            if m is None:
                continue
            if spec.check is not None and not spec.check(m):
                continue
            if not _is_extractable(m, users, claimed):
                continue
            m.spec = spec  # annotate for the caller
            claimed |= m.interior_ids
            matches.append(m)
            break
    return matches


def partition(graph: Graph, specs: List[PatternSpec]) -> Graph:
    """Extract every match of ``specs`` into Composite nodes.

    Extracted composites start with ``target="cpu"``; the dispatcher
    (:mod:`repro.mapping`) later reassigns them to accelerators.
    """
    matches = find_matches(graph, specs)
    by_root: Dict[int, MatchResult] = {m.root.node_id: m for m in matches}

    memo: Dict[int, Node] = {}

    def rebuild(node: Node) -> Node:
        if node.node_id in memo:
            return memo[node.node_id]
        m = by_root.get(node.node_id)
        if m is not None:
            ext = [rebuild(x) for x in m.inputs]
            body = _extract_body(m, m.spec.name)
            new: Node = Composite(m.spec.name, body, ext)
        elif isinstance(node, (Var, Constant)):
            new = node
        elif isinstance(node, Call):
            new = Call(node.op, [rebuild(i) for i in node.inputs], node.attrs)
        elif isinstance(node, Composite):
            new = Composite(node.pattern_name, node.body,
                            [rebuild(i) for i in node.inputs], node.target)
        else:
            raise PatternError(f"cannot rebuild {node!r}")
        memo[node.node_id] = new
        return new

    new_output = rebuild(graph.output)
    new_inputs = [memo.get(v.node_id, v) for v in graph.inputs]
    return Graph(new_inputs, new_output, name=graph.name)
