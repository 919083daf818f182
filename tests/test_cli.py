"""Tests for the repro-sim command-line front end."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, config_from_args, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        cfg = config_from_args(args)
        assert cfg.protocol == "ALERT"
        assert cfg.n_nodes == 200
        assert cfg.destination_update is True
        assert cfg.h_override == 5

    def test_protocol_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--protocol", "OSPF"])
        args = build_parser().parse_args(["--protocol", "ZAP"])
        assert config_from_args(args).protocol == "ZAP"

    def test_no_destination_update_flag(self):
        args = build_parser().parse_args(["--no-destination-update"])
        assert config_from_args(args).destination_update is False

    def test_alert_options_mapped(self):
        args = build_parser().parse_args(
            ["--notify-and-go", "--intersection-defense"]
        )
        cfg = config_from_args(args)
        assert cfg.alert_options == {
            "notify_and_go": True,
            "intersection_defense": True,
        }

    def test_partitions_zero_derives_from_k(self):
        args = build_parser().parse_args(["--partitions", "0", "--k", "8"])
        cfg = config_from_args(args)
        assert cfg.h_override is None and cfg.k == 8

    def test_group_mobility_args(self):
        args = build_parser().parse_args(
            ["--mobility", "group", "--groups", "5", "--group-range", "200"]
        )
        cfg = config_from_args(args)
        assert cfg.mobility == "group"
        assert cfg.n_groups == 5 and cfg.group_range == 200.0


class TestMain:
    def test_runs_and_prints_metrics(self, capsys):
        code = main(
            [
                "--protocol", "GPSR", "--nodes", "30", "--duration", "6",
                "--pairs", "2", "--field", "600", "--seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "delivery rate" in out
        assert "hops per packet" in out

    def test_alert_prints_rf_metric(self, capsys):
        main(
            [
                "--nodes", "40", "--duration", "6", "--pairs", "2",
                "--field", "600", "--partitions", "4",
            ]
        )
        assert "random forwarders" in capsys.readouterr().out
