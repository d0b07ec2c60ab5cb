"""Fixed-width report rendering for experiment drivers.

Nothing fancy: the experiments print the same rows/series the paper
reports, plus a paper-vs-measured comparison block, as plain text that
reads well in a terminal and pastes well into EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.util.units import fmt_bytes, fmt_time

_INF = float("inf")


@dataclass
class Table:
    """A fixed-width text table."""

    headers: Sequence[str]
    rows: list[Sequence[Any]] = field(default_factory=list)
    title: str = ""

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells for {len(self.headers)} headers"
            )
        self.rows.append(cells)

    def render(self) -> str:
        cells = [[str(h) for h in self.headers]] + [
            [_fmt_cell(c) for c in row] for row in self.rows
        ]
        widths = [max(len(r[i]) for r in cells) for i in range(len(self.headers))]
        lines = []
        if self.title:
            lines.append(self.title)
        sep = "-+-".join("-" * w for w in widths)
        lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
        lines.append(sep)
        for row in cells[1:]:
            lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


def _fmt_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_series(
    name: str,
    points: Sequence[tuple[float, float]],
    x_fmt: Callable[[float], str] = fmt_bytes,
    y_fmt: Callable[[float], str] = fmt_time,
) -> str:
    """One labelled (x, y) series as aligned text."""
    lines = [name]
    for x, y in points:
        lines.append(f"  {x_fmt(x):>12}  {y_fmt(y)}")
    return "\n".join(lines)


def compare_to_paper(
    rows: Sequence[tuple[str, float, Optional[float]]],
    measured_label: str = "measured",
) -> str:
    """Render (quantity, measured, paper) triples with the ratio.

    Paper values may be None (not quoted); the ratio column then shows
    a dash.
    """
    table = Table(headers=("quantity", measured_label, "paper", "measured/paper"))
    for name, measured, published in rows:
        if published is None:
            table.add_row(name, measured, "-", "-")
        elif published == 0:
            table.add_row(name, measured, published, "-")
        else:
            table.add_row(name, measured, published, f"{measured / published:.2f}x")
    return table.render()


def banner(title: str) -> str:
    bar = "=" * max(len(title), 8)
    return f"{bar}\n{title}\n{bar}"


def number_list(kind: type = float, positive: bool = True) -> Callable[[str], tuple]:
    """An argparse ``type=`` for comma-separated flags like ``--rates 20,40``.

    Every value must be finite and positive (``positive=False``: finite
    and non-negative, for seeds).  NaN, ±inf, a negative value, an
    unparsable token or an empty list is an argparse error — one line
    on stderr and exit status 2 — instead of a traceback from deep in
    the simulator.
    """

    def parse(text: str) -> tuple:
        try:
            values = tuple(kind(tok) for tok in text.split(",") if tok.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, got {text!r}"
            ) from None
        if not values:
            raise argparse.ArgumentTypeError("empty list")
        for value in values:
            _check_number(value, positive)
        return values

    return parse


def positive_number(text: str) -> float:
    """An argparse ``type=`` for one finite, positive float (``--gb``)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    _check_number(value, positive=True)
    return value


def _check_number(value: float, positive: bool) -> None:
    ok = 0 < value < _INF if positive else 0 <= value < _INF
    if not ok:
        need = "positive" if positive else "non-negative"
        raise argparse.ArgumentTypeError(f"{value} is not a finite {need} number")
