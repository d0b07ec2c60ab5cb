"""Unit tests for repro.util.units."""

import pytest

from repro.util.units import (
    GB,
    GiB,
    KB,
    MB,
    MiB,
    fmt_bytes,
    fmt_time,
    parse_size,
)


class TestConstants:
    def test_binary_prefixes(self):
        assert KB == 1024
        assert MB == 1024**2
        assert GB == 1024**3

    def test_hadoop_alias_is_binary(self):
        assert MB == MiB
        assert GB == GiB


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("64MB", 64 * MB),
            ("64 MB", 64 * MB),
            ("1gb", GB),
            ("1.5 GiB", int(1.5 * GB)),
            ("128", 128),
            ("0", 0),
            ("10k", 10 * KB),
            ("7b", 7),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_size(text) == expected

    def test_int_passthrough(self):
        assert parse_size(4096) == 4096

    def test_float_rounds_down(self):
        assert parse_size(10.9) == 10

    def test_unknown_suffix(self):
        with pytest.raises(ValueError, match="unknown size suffix"):
            parse_size("3qb")

    def test_missing_number(self):
        with pytest.raises(ValueError, match="no numeric part"):
            parse_size("MB")

    def test_negative(self):
        with pytest.raises(ValueError, match="negative"):
            parse_size(-1)

    @pytest.mark.parametrize("value", ["1e400GB", float("inf"), float("nan")])
    def test_non_finite(self, value):
        with pytest.raises(ValueError, match="finite"):
            parse_size(value)


class TestFormatting:
    def test_fmt_bytes_units(self):
        assert fmt_bytes(512) == "512 B"
        assert fmt_bytes(64 * KB) == "64.0 KB"
        assert fmt_bytes(3 * MB) == "3.0 MB"
        assert fmt_bytes(2 * GB) == "2.0 GB"

    def test_fmt_bytes_negative(self):
        assert fmt_bytes(-64 * KB) == "-64.0 KB"

    def test_fmt_time_scales(self):
        assert fmt_time(5e-6) == "5.0 us"
        assert fmt_time(1.3e-3) == "1.30 ms"
        assert fmt_time(2.5) == "2.50 s"
        assert fmt_time(300) == "5.0 min"

    def test_fmt_time_negative(self):
        assert fmt_time(-0.25).startswith("-")
