"""Small internal helpers shared across the library."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import TypeVar

T = TypeVar("T")


def pairwise(items: Sequence[T]) -> Iterator[tuple[T, T]]:
    """Yield consecutive pairs ``(items[i], items[i+1])``."""
    for i in range(len(items) - 1):
        yield items[i], items[i + 1]


def argmin(items: Iterable[T], key) -> T:
    """Return the element of *items* minimizing *key* (first on ties)."""
    best = None
    best_key = None
    for item in items:
        k = key(item)
        if best_key is None or k < best_key:
            best, best_key = item, k
    if best_key is None:
        raise ValueError("argmin() of empty iterable")
    return best


def bits_needed(value: int) -> int:
    """Number of bits needed to write *value* in binary (at least 1)."""
    if value < 0:
        raise ValueError("bits_needed() requires a non-negative integer")
    return max(1, value.bit_length())


def is_sorted(seq: Sequence[T]) -> bool:
    """True if *seq* is non-decreasing."""
    return all(a <= b for a, b in pairwise(seq))


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a simple monospace table (used by reports and the CLI)."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
