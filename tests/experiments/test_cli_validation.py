"""Bad list and number flags stop at argparse, not deep in the simulator.

Each case used to end in a traceback from a fault spec, numpy or the
kernel, in a silent 0-job report (``--loads nan``, ``--horizon nan``),
or in a different run than asked for (``fig1_shuffle --gb 0`` ran
16 GB).  Now the validating types in :mod:`repro.experiments.reporting`
reject it while parsing: one ``error:`` line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse

import pytest

from repro.experiments import (
    capacity,
    critical_path,
    durability,
    fault_tolerance,
    fig1_shuffle,
    fig2_latency,
    multi_tenant,
    network_faults,
    robustness,
    skew,
    stragglers,
)
from repro.experiments.reporting import (
    add_shared_flags,
    list_of,
    number,
    number_list,
    one_of,
    positive_number,
    size,
)
from repro.obs import analyze_cli
from repro.obs import cli as trace_cli
from repro.obs import replay_cli

CASES = {
    "durability-rates-nan": (
        durability.main,
        ["--gb", "1", "--seeds", "2011", "--rates", "nan", "--replications", "1"],
    ),
    "durability-replications-zero": (
        durability.main,
        ["--gb", "1", "--seeds", "2011", "--rates", "60", "--replications", "0"],
    ),
    "fault_tolerance-rates-negative": (
        fault_tolerance.main, ["--gb", "1", "--seeds", "2011", "--rates", "-5"]
    ),
    "multi_tenant-loads-nan": (
        multi_tenant.main,
        ["--loads", "nan", "--seeds", "2011", "--policies", "fair",
         "--horizon", "60", "--no-chaos"],
    ),
    "network_faults-rates-negative": (
        network_faults.main, ["--gb", "0.25", "--seeds", "2011", "--rates", "-1"]
    ),
    "network_faults-gb-inf": (network_faults.main, ["--gb", "inf"]),
    "stragglers-seeds-negative": (stragglers.main, ["--gb", "1", "--seeds", "-1"]),
    "robustness-seeds-junk": (robustness.main, ["--seeds", "1,x"]),
    "robustness-seeds-duplicate": (robustness.main, ["--gb", "1", "--seeds", "1,1"]),
    "capacity-store-seeds-duplicate": (
        capacity.main,
        ["--quick", "--store-out", "unused", "--store-seeds", "2011,2011"],
    ),
    "fault_tolerance-rates-duplicate": (
        fault_tolerance.main, ["--gb", "1", "--seeds", "2011", "--rates", "20,20"]
    ),
    "capacity-store-seeds-nan": (
        capacity.main, ["--quick", "--store-out", "unused", "--store-seeds", "nan"]
    ),
    "trace-rate-nan": (
        trace_cli.main, ["fault", "--size", "64MB", "--rate", "nan"]
    ),
    "trace-size-negative": (trace_cli.main, ["fig1", "--size=-5MB"]),
    "replay-rate-negative": (replay_cli.main, ["fault", "--size", "64MB", "--rate", "-1"]),
    "fig1_shuffle-gb-zero": (fig1_shuffle.main, ["--gb", "0"]),
    "multi_tenant-horizon-nan": (multi_tenant.main, ["--horizon", "nan"]),
    "skew-gb-negative": (skew.main, ["--gb", "-2"]),
    "stragglers-slowdown-nan": (stragglers.main, ["--slowdown", "nan"]),
    "critical_path-pct-nan": (critical_path.main, ["--pct", "nan"]),
    "fault_tolerance-checkpoint-negative": (
        fault_tolerance.main,
        ["--gb", "1", "--seeds", "2011", "--rates", "40", "--checkpoint", "-5"],
    ),
    "durability-repair-cap-nan": (
        durability.main,
        ["--gb", "1", "--seeds", "2011", "--rates", "8", "--replications", "1",
         "--repair-cap-mib", "nan"],
    ),
    "fig2_latency-trials-zero": (fig2_latency.main, ["--trials", "0"]),
    "analyze-pcts-junk": (analyze_cli.main, ["trace.json", "--pcts", "x"]),
    "multi_tenant-policies-unknown": (
        multi_tenant.main,
        ["--seeds", "2011", "--loads", "1", "--policies", "bogus",
         "--horizon", "60", "--no-chaos"],
    ),
    "analyze-top-negative": (analyze_cli.main, ["trace.json", "--top", "-3"]),
    "analyze-validate-pct-nan": (
        analyze_cli.main, ["trace.json", "--validate", "--validate-pct", "nan"]
    ),
    "trace-gantt-limit-negative": (
        trace_cli.main,
        ["fig1", "--size", "64MB", "--gantt", "--gantt-limit", "-2"],
    ),
    "capacity-store-horizon-nan": (
        capacity.main,
        ["--quick", "--store-out", "stores", "--store-horizon", "nan"],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_flag_is_an_argparse_error(case, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    main, argv = CASES[case]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error: argument" in err.strip().splitlines()[-1]
    assert not list(tmp_path.iterdir())  # rejected before anything ran


class TestNumberList:
    def test_parses_and_skips_empty_tokens(self):
        assert number_list()("20, 40,") == (20.0, 40.0)
        assert number_list(int, positive=False)("0,2011") == (0, 2011)

    @pytest.mark.parametrize("text", ["", ",", "nan", "inf", "-inf", "-1", "0", "1,x"])
    def test_rejects(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            number_list()(text)

    @pytest.mark.parametrize("text", ["1,1", "1, 2, 1", "20,20.0"])
    def test_rejects_a_repeated_value(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="^duplicate "):
            number_list()(text)

    def test_non_negative_allows_zero_only(self):
        assert number_list(positive=False)("0") == (0.0,)
        with pytest.raises(argparse.ArgumentTypeError):
            number_list(positive=False)("-1")

    @pytest.mark.parametrize("text", ["nan", "inf", "-1", "0", "x"])
    def test_positive_number_rejects(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            positive_number(text)


class TestFlagTypes:
    @pytest.mark.parametrize("text", ["nan", "inf", "1", "1.5", "-0.1", "x"])
    def test_fraction_rejects(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            number(below=1.0)(text)

    def test_int_kind_rejects_fractions(self):
        assert number(int)("4") == 4
        with pytest.raises(argparse.ArgumentTypeError):
            number(int)("2.5")

    def test_choice_list(self):
        parse = list_of(one_of(("fair", "fifo")))
        assert parse("fair, fifo") == ("fair", "fifo")
        for text in ("", "fair,bogus", "fair,fair"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse(text)

    @pytest.mark.parametrize("text", ["0MB", "-5MB", "1XB", "MB", "1e999GB"])
    def test_size_rejects(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            size(text)


class TestSharedFlags:
    def _parser(self, **defaults):
        return add_shared_flags(argparse.ArgumentParser(), **defaults)

    def test_type_follows_default(self):
        assert self._parser(gb=4).parse_args(["--gb", "2"]).gb == 2
        assert self._parser(gb=1.0).parse_args(["--gb", "0.25"]).gb == 0.25
        with pytest.raises(SystemExit):
            self._parser(gb=4).parse_args(["--gb", "0.25"])

    def test_defaults_pass_through(self):
        args = self._parser(
            gb=16, seeds=(2011, 2012), rates=None, full=False, trace_out=None
        ).parse_args([])
        assert (args.gb, args.seeds, args.rates) == (16, (2011, 2012), None)
        assert args.full is False and args.trace_out is None

    def test_help_names_the_default(self):
        text = self._parser(seeds=(2011, 2012, 2013), rate=40.0).format_help()
        assert "(default 2011,2012,2013)" in text
        assert "(default 40)" in text

    def test_unknown_flag_name_is_a_type_error(self):
        with pytest.raises(TypeError, match="gigabytes"):
            self._parser(gigabytes=4)
