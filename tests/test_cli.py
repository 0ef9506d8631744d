"""Tests for the command-line interface."""

import pytest

from repro import cli


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_parses_run(self):
        args = cli.build_parser().parse_args(["run", "--process", "pull", "--n", "32"])
        assert args.process == "pull"
        assert args.n == 32

    def test_parses_scaling_sizes(self):
        args = cli.build_parser().parse_args(["scaling", "--sizes", "8", "16", "32"])
        assert args.sizes == [8, 16, 32]

    def test_parses_async(self):
        args = cli.build_parser().parse_args(
            ["async", "--protocol", "pull", "--jitter", "1.5", "--churn-rate", "0.02"]
        )
        assert args.protocol == "pull"
        assert args.jitter == 1.5
        assert args.churn_rate == 0.02
        assert not args.compare_sync


class TestCommands:
    def test_run_command(self, capsys):
        assert cli.main(["run", "--process", "push", "--family", "cycle", "--n", "12",
                         "--trials", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "rounds_mean" in out and "cycle" in out

    def test_scaling_command(self, capsys):
        assert cli.main(["scaling", "--process", "push", "--family", "cycle",
                         "--sizes", "8", "16", "--trials", "1", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "power-law fit" in out
        assert "theorem-shape fit" in out

    def test_run_baseline_on_array_backend(self, capsys):
        """End-to-end: a baseline runs on the generators' array graphs, and the
        seeded summary repeats exactly."""
        outputs = []
        for _ in range(2):
            assert cli.main(["run", "--process", "name_dropper", "--family", "cycle",
                             "--n", "16", "--trials", "2", "--seed", "5"]) == 0
            outputs.append(capsys.readouterr().out)
            assert "rounds_mean" in outputs[-1]
        assert outputs[0] == outputs[1]

    def test_run_flooding_on_array_backend(self, capsys):
        assert cli.main(["run", "--process", "flooding", "--family", "cycle",
                         "--n", "16", "--trials", "1", "--seed", "5"]) == 0
        assert "rounds_mean" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "scaling", "group", "directed"])
    def test_backend_option_is_gone(self, command, capsys):
        """There is one graph substrate, so no subcommand offers --backend."""
        with pytest.raises(SystemExit):
            cli.main([command, "--backend", "array"])
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_nonmonotone_command(self, capsys):
        assert cli.main(["nonmonotone", "--trials", "50", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "reproduced" in out
        assert "diamond" in out

    def test_group_command(self, capsys):
        assert cli.main(["group", "--host-family", "cycle", "--host-n", "30",
                         "--k", "6", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "group_k" in out

    def test_run_command_save_json(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        assert cli.main(["run", "--process", "push", "--family", "cycle", "--n", "10",
                         "--trials", "1", "--seed", "6", "--save", str(target)]) == 0
        assert target.exists()
        import json

        payload = json.loads(target.read_text())
        assert payload["rows"][0]["process"] == "push"
        assert payload["metadata"]["command"] == "run"

    def test_scaling_command_save_csv(self, capsys, tmp_path):
        target = tmp_path / "scaling.csv"
        assert cli.main(["scaling", "--process", "push", "--family", "cycle",
                         "--sizes", "8", "16", "--trials", "1", "--seed", "7",
                         "--save", str(target)]) == 0
        content = target.read_text()
        assert "rounds_mean" in content
        assert content.count("\n") >= 3

    def test_async_command_degenerate_matches_sync(self, capsys):
        """Sub-tick fixed latency + no faults: the async run IS the sync run."""
        assert cli.main(["async", "--protocol", "push", "--family", "cycle",
                         "--n", "16", "--seed", "3", "--compare-sync"]) == 0
        out = capsys.readouterr().out
        assert "inflation" in out and "True" in out
        row = out.splitlines()[1].split()
        ticks, sync_rounds, inflation = row[3], row[-2], row[-1]
        assert ticks == sync_rounds
        assert inflation == "1"

    def test_async_command_with_faults(self, capsys, tmp_path):
        target = tmp_path / "async.json"
        assert cli.main(["async", "--n", "12", "--seed", "3", "--jitter", "0.8",
                         "--drop", "0.1", "--churn-rate", "0.01",
                         "--save", str(target)]) == 0
        out = capsys.readouterr().out
        assert "evictions" in out and "True" in out
        import json

        payload = json.loads(target.read_text())
        assert payload["rows"][0]["converged"] is True
        assert payload["metadata"]["command"] == "async"

    def test_directed_command(self, capsys):
        assert cli.main(["directed", "--family", "directed_cycle",
                         "--sizes", "6", "10", "--trials", "1", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "power-law fit" in out
