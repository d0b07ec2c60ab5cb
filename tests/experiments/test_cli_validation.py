"""Bad list and number flags stop at argparse, not deep in the simulator.

Each case used to end in a traceback from a fault spec, numpy or the
kernel, or (``--loads nan``) in a silent 0-job report.  Now the shared
parser in :mod:`repro.experiments.reporting` rejects it while parsing:
one ``error:`` line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse

import pytest

from repro.experiments import (
    capacity,
    durability,
    fault_tolerance,
    multi_tenant,
    network_faults,
    robustness,
    stragglers,
)
from repro.experiments.reporting import number_list, positive_number
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
    "capacity-store-seeds-nan": (
        capacity.main, ["--quick", "--store-out", "unused", "--store-seeds", "nan"]
    ),
    "trace-rate-nan": (
        trace_cli.main, ["fault", "--size", "64MB", "--rate", "nan"]
    ),
    "trace-size-negative": (trace_cli.main, ["fig1", "--size=-5MB"]),
    "replay-rate-negative": (replay_cli.main, ["fault", "--size", "64MB", "--rate", "-1"]),
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

    def test_non_negative_allows_zero_only(self):
        assert number_list(positive=False)("0") == (0.0,)
        with pytest.raises(argparse.ArgumentTypeError):
            number_list(positive=False)("-1")

    @pytest.mark.parametrize("text", ["nan", "inf", "-1", "0", "x"])
    def test_positive_number_rejects(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            positive_number(text)
