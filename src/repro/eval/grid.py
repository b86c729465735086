"""What every sweep driver in :mod:`repro.eval` shares: the ordered
thread fan-out over independent cells and the (cycles, energy) Pareto
marker."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def fan_out(fn: Callable[[T], R], cells: Iterable[T],
            jobs: Optional[int]) -> List[R]:
    """``[fn(c) for c in cells]``, on ``jobs`` threads when ``jobs > 1``.

    The result keeps the order of ``cells`` either way, so a threaded
    sweep emits the same table or artifact as a serial one.
    """
    cells = list(cells)
    if jobs is None or jobs <= 1 or len(cells) <= 1:
        return [fn(c) for c in cells]
    with ThreadPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
        return list(pool.map(fn, cells))


def mark_pareto(points: Sequence) -> None:
    """Set ``p.pareto`` on each point of one comparison group: true
    when no other point is at least as good on both ``cycles`` and
    ``energy_pj`` and strictly better on one."""
    for p in points:
        p.pareto = not any(
            (q.cycles <= p.cycles and q.energy_pj <= p.energy_pj
             and (q.cycles < p.cycles or q.energy_pj < p.energy_pj))
            for q in points)
