"""Fixed-width report rendering for experiment drivers.

Nothing fancy: the experiments print the same rows/series the paper
reports, plus a paper-vs-measured comparison block, as plain text that
reads well in a terminal and pastes well into EXPERIMENTS.md.  The
module also holds the CSV/JSON artifact writers and the shared,
validating command-line flags.
"""

from __future__ import annotations

import argparse
import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.util.units import fmt_bytes, fmt_time, parse_size

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


# -- artifacts ---------------------------------------------------------------
#
# The drivers' result exports, ``repro analyze --json`` and ``repro trace
# --metrics-out`` all write through these two, so the format is set once.


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one CSV artifact: the header row, then ``rows``."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: Path, doc: Any) -> None:
    """Write one JSON artifact: ``indent=2``, sorted keys, trailing newline."""
    with path.open("w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- command-line flags ------------------------------------------------------
#
# Every numeric flag is parsed by a validating ``type=``: NaN, ±inf, a
# value out of range or an unparsable token is an argparse error — one
# line on stderr and exit status 2 — instead of a traceback (or a silent
# empty run) from deep in the simulator.


def number(
    kind: type = float, positive: bool = True, below: float = _INF
) -> Callable[[str], Any]:
    """An argparse ``type=`` for one finite number of ``kind``.

    The value must be positive (``positive=False``: non-negative, for
    seeds) and less than ``below``.
    """

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {kind.__name__}, got {text!r}"
            ) from None
        low_ok = value > 0 if positive else value >= 0
        if not (low_ok and value < below):
            need = "positive" if positive else "non-negative"
            bound = "" if below == _INF else f" below {below:g}"
            raise argparse.ArgumentTypeError(
                f"{value} is not a finite {need} number{bound}"
            )
        return value

    return parse


#: ``--gb 2.5``, ``--rate 40``: one finite, positive float.
positive_number = number()


def list_of(parse_one: Callable[[str], Any]) -> Callable[[str], tuple]:
    """An argparse ``type=`` for a comma-separated list such as
    ``--rates 20,40``: each token goes through ``parse_one``; empty
    tokens are skipped, and an empty list or a repeated value is an
    error (a repeated seed or rate would be run twice and reported as
    if it were a second sample)."""

    def parse(text: str) -> tuple:
        tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
        if not tokens:
            raise argparse.ArgumentTypeError("empty list")
        values = tuple(parse_one(tok) for tok in tokens)
        for i, value in enumerate(values):
            if value in values[:i]:
                raise argparse.ArgumentTypeError(f"duplicate {tokens[i]}")
        return values

    return parse


def number_list(
    kind: type = float, positive: bool = True, below: float = _INF
) -> Callable[[str], tuple]:
    """``list_of(number(...))``: every value finite, positive (or
    non-negative) and below ``below``."""
    return list_of(number(kind, positive, below))


def one_of(choices: Sequence[str]) -> Callable[[str], str]:
    """An argparse ``type=`` accepting one of ``choices`` (use with
    :func:`list_of` for lists; plain ``choices=`` cannot check those)."""

    def parse(text: str) -> str:
        if text not in choices:
            raise argparse.ArgumentTypeError(
                f"unknown {text!r} (choose from {', '.join(choices)})"
            )
        return text

    return parse


def size(text: str) -> str:
    """An argparse ``type=`` for a positive size like ``256MB``; keeps the
    text, which run manifests record as given."""
    try:
        nbytes = parse_size(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if nbytes <= 0:
        raise argparse.ArgumentTypeError(f"size must be positive: {text!r}")
    return text


def _with_default(help_text: str, default: Any) -> str:
    if default is None:
        return help_text
    if isinstance(default, tuple):
        shown = ",".join(map(str, default))
    elif isinstance(default, float):
        shown = f"{default:g}"
    else:
        shown = str(default)
    return f"{help_text} (default {shown})"


def add_shared_flags(
    parser: argparse.ArgumentParser, **defaults: Any
) -> argparse.ArgumentParser:
    """Add the shared flags named by keyword, each with the caller's default.

    ``trace_out=None`` adds ``--trace-out`` defaulting to None; the
    switches ``full`` and ``quick`` take ``False``.  A numeric flag's type
    follows its default: ``gb=4`` parses ``--gb`` as a positive int,
    ``gb=1.0`` as a positive float.  Help text names the default.
    """
    flags = dict(defaults)
    if "gb" in flags:
        gb = flags.pop("gb")
        parser.add_argument(
            "--gb", type=number(type(gb)), default=gb,
            help=_with_default("input size, GiB", gb),
        )
    if "seed" in flags:
        seed = flags.pop("seed")
        parser.add_argument(
            "--seed", type=number(int, positive=False), default=seed,
            help=_with_default("random seed", seed),
        )
    if "seeds" in flags:
        seeds = flags.pop("seeds")
        parser.add_argument(
            "--seeds", type=number_list(int, positive=False), default=seeds,
            help=_with_default("comma-separated seeds", seeds),
        )
    if "rates" in flags:
        rates = flags.pop("rates")
        parser.add_argument(
            "--rates", type=number_list(), default=rates,
            help=_with_default(
                "comma-separated fault rates per node-hour "
                "(network faults: per link-hour)", rates,
            ),
        )
    if "size" in flags:
        size_text = flags.pop("size")
        parser.add_argument(
            "--size", type=size, default=size_text,
            help=_with_default("input size, e.g. 256MB or 1GB", size_text),
        )
    if "rate" in flags:
        rate = flags.pop("rate")
        parser.add_argument(
            "--rate", type=positive_number, default=rate,
            help=_with_default("fault experiment: crashes per node-hour", rate),
        )
    if "out" in flags:
        out = flags.pop("out")
        parser.add_argument(
            "--out", type=Path, default=out,
            help=_with_default("directory for the CSV/JSON exports", out),
        )
    if "trace_out" in flags:
        trace_out = flags.pop("trace_out")
        parser.add_argument(
            "--trace-out", type=Path, default=trace_out,
            help=_with_default(
                "write an observed run's Perfetto trace_event JSON here "
                "(+ a .manifest.json sidecar)", trace_out,
            ),
        )
    if "full" in flags:
        parser.add_argument(
            "--full", action="store_true", default=flags.pop("full"),
            help="paper-size inputs or the wider sweep (slow)",
        )
    if "quick" in flags:
        parser.add_argument(
            "--quick", action="store_true", default=flags.pop("quick"),
            help="fewer, smaller runs (CI smoke)",
        )
    if flags:
        raise TypeError(f"unknown shared flags: {', '.join(sorted(flags))}")
    return parser


def driver_parser(description: str, **defaults: Any) -> argparse.ArgumentParser:
    """An experiment driver's parser: its docstring plus the shared
    flags it names (see :func:`add_shared_flags`)."""
    return add_shared_flags(
        argparse.ArgumentParser(description=description), **defaults
    )
