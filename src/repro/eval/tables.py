"""Plain-text table formatting for benchmark reports."""

from __future__ import annotations

from typing import List, Optional, Sequence


def format_table(headers: Sequence[str], rows: List[Sequence],
                 title: Optional[str] = None) -> str:
    """Fixed-width table; values are str()-ed, None prints as '-'."""
    cells = [[("-" if v is None else str(v)) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, v in enumerate(row):
            widths[i] = max(widths[i], len(v))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def fmt_ms(value: Optional[float]) -> Optional[str]:
    if value is None:
        return None
    return f"{value:.2f}"
