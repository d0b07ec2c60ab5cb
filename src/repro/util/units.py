"""Size and time units used throughout the reproduction.

The paper mixes decimal prefixes in prose ("128 MB", "1 GB") with what are
really binary sizes (a 64 MB HDFS block is 64 * 2**20 bytes).  We follow
Hadoop's convention: ``KB``/``MB``/``GB`` here are the *binary* units,
matching ``io.file.buffer.size``-style configuration values, and the
explicit ``KiB``/``MiB``/``GiB`` aliases are provided for clarity.

Times are plain floats in seconds; ``US``/``MS`` are multipliers so model
code can write ``65 * US`` instead of ``6.5e-5``.
"""

from __future__ import annotations

# --- sizes (bytes) -------------------------------------------------------
KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB
TiB = 1024 * GiB

# Hadoop-convention aliases: "64 MB block" means 64 * 2**20 bytes.
KB = KiB
MB = MiB
GB = GiB
TB = TiB

# --- times (seconds) -----------------------------------------------------
US = 1e-6
MS = 1e-3
SECOND = 1.0
MINUTE = 60.0

_SIZE_SUFFIXES = {
    "b": 1,
    "k": KiB,
    "kb": KiB,
    "kib": KiB,
    "m": MiB,
    "mb": MiB,
    "mib": MiB,
    "g": GiB,
    "gb": GiB,
    "gib": GiB,
    "t": TiB,
    "tb": TiB,
    "tib": TiB,
}


def parse_size(text: str | int | float) -> int:
    """Parse a human-readable size like ``"64MB"`` or ``"1.5 GiB"`` to bytes.

    Integers and floats pass through (rounded to int).  Raises
    :class:`ValueError` for unknown suffixes and for negative, NaN or
    infinite sizes (``"1e400GB"`` included).
    """
    if isinstance(text, (int, float)):
        value = text
    else:
        s = text.strip().lower().replace(" ", "")
        idx = len(s)
        while idx > 0 and not s[idx - 1].isdigit():
            idx -= 1
        num, suffix = s[:idx], s[idx:]
        if not num:
            raise ValueError(f"no numeric part in size {text!r}")
        mult = _SIZE_SUFFIXES.get(suffix, None) if suffix else 1
        if mult is None:
            raise ValueError(f"unknown size suffix {suffix!r} in {text!r}")
        value = float(num) * mult
    if not 0 <= value < float("inf"):
        raise ValueError(f"size must be finite and non-negative: {text!r}")
    return int(value)


def fmt_bytes(nbytes: float) -> str:
    """Format a byte count with a binary suffix, e.g. ``fmt_bytes(65536) == '64.0 KB'``."""
    n = float(nbytes)
    sign = "-" if n < 0 else ""
    n = abs(n)
    for unit, div in (("GB", GiB), ("MB", MiB), ("KB", KiB)):
        if n >= div:
            return f"{sign}{n / div:.1f} {unit}"
    if n == int(n):
        return f"{sign}{int(n)} B"
    return f"{sign}{n:.1f} B"


def gib_label(nbytes: float) -> str:
    """A job-name size tag in GiB, e.g. ``4g`` for ``4 * GiB``.

    A float byte count keeps its float form (``1.0 * GiB`` -> ``1.0g``)
    and a part-GiB count shows the fraction (256 MiB -> ``0.25g``), so
    ``gib_label(gb * GiB) == f"{gb}g"`` for the sizes drivers take.
    """
    if isinstance(nbytes, int) and nbytes % GiB == 0:
        return f"{nbytes // GiB}g"
    return f"{nbytes / GiB}g"


def fmt_time(seconds: float) -> str:
    """Format a duration: microseconds below 1 ms, ms below 1 s, else seconds."""
    s = float(seconds)
    sign = "-" if s < 0 else ""
    s = abs(s)
    if s < 1e-3:
        return f"{sign}{s / US:.1f} us"
    if s < 1.0:
        return f"{sign}{s / MS:.2f} ms"
    if s < 120.0:
        return f"{sign}{s:.2f} s"
    return f"{sign}{s / 60.0:.1f} min"
