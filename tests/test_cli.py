"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestValidation:
    def test_jobs_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "fig5", "--jobs", "0"])
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_jobs_must_be_integer(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "fig5", "--jobs", "many"])
        assert "expects an integer" in capsys.readouterr().err

    def test_checkpoint_every_rejects_negative(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--checkpoint-every", "-1"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_resume_requires_checkpoint_dir(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--resume"])
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    def test_resume_rejects_missing_dir(self, capsys, tmp_path):
        missing = str(tmp_path / "nope")
        with pytest.raises(SystemExit):
            main(["experiment", "fig5", "--resume", "--checkpoint-dir", missing])
        assert "does not exist" in capsys.readouterr().err

    def test_resume_accepts_existing_dir(self, capsys, tmp_path):
        assert main(
            ["experiment", "fig5", "--resume", "--checkpoint-dir", str(tmp_path)]
        ) == 0

    def test_power_cap_rejects_nonpositive(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--power-cap", "-5"])
        assert "must be positive" in capsys.readouterr().err

    def test_power_cap_rejects_garbage(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--power-cap", "lots"])
        assert "watts or 'auto'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "NaN"])
    def test_power_cap_rejects_nonfinite(self, capsys, bad):
        # float('nan') <= 0 is False, so without an explicit isfinite
        # check these used to sail through and traceback much later.
        with pytest.raises(SystemExit):
            main(["fleet", "--power-cap", bad])
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_hier_power_budget_rejects_nonfinite(self, capsys, bad):
        # The budget the fleet agent apportions is --power-cap.
        with pytest.raises(SystemExit):
            main(["fleet", "--hier", "ddpg", "--power-cap", bad])
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--load", "--chaos", "--retry-backoff"]
    )
    def test_chaos_rates_reject_nonfinite(self, capsys, flag):
        with pytest.raises(SystemExit):
            main(["fleet", "--chaos", "1.0", flag, "nan"])
        assert "finite" in capsys.readouterr().err

    def test_hier_fed_avg_requires_shared_replay(self, capsys):
        assert main([
            "fleet", "--hier", "ddpg", "--power-cap", "auto",
            "--fed-avg-every", "4",
        ]) == 2
        assert "shared_replay" in capsys.readouterr().err

    def test_hier_rejects_unknown_algo(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--hier", "dqn", "--power-cap", "auto"])
        assert "invalid choice" in capsys.readouterr().err

    def test_hier_resume_requires_checkpoint_dir(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--hier", "ddpg", "--power-cap", "auto", "--resume"])
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, switch",
        [
            (["--retry-budget", "1"], "--chaos"),
            (["--no-failover"], "--chaos"),
            (["--control", "weights"], "--hier"),
            (["--checkpoint-dir", "ckpt"], "--hier"),
            (["--resume"], "--hier"),
        ],
        ids=["retry-budget", "no-failover", "control", "checkpoint-dir", "resume"],
    )
    def test_group_flags_require_their_switch(self, capsys, argv, switch):
        with pytest.raises(SystemExit):
            main(["fleet", *argv])
        assert f"{argv[0]} requires {switch}" in capsys.readouterr().err

    def test_hier_requires_power_cap(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--hier", "ddpg"])
        assert "--hier requires --power-cap" in capsys.readouterr().err

    def test_fleet_rejects_unknown_policy(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--nodes", "1", "--policy", "bogus"])
        err = capsys.readouterr().err
        assert "invalid choice" in err and "controller" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--policy", "deeppower", "--agent", "/nonexistent.npz"],
            ["--hier", "ddpg", "--power-cap", "auto",
             "--fleet-agent", "/nonexistent.npz"],
        ],
        ids=["agent", "fleet-agent"],
    )
    def test_missing_agent_file_fails_at_parse_time(self, capsys, argv):
        with pytest.raises(SystemExit):
            main(["fleet", "--nodes", "1", *argv])
        assert "cannot read '/nonexistent.npz'" in capsys.readouterr().err

    def test_existing_agent_file_is_accepted(self, tmp_path):
        agent = tmp_path / "agent.npz"
        agent.write_bytes(b"")
        args = build_parser().parse_args(["fleet", "--agent", str(agent)])
        assert args.agent == str(agent)

    def test_fleet_nodes_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--nodes", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_fleet_load_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--load", "0"])
        assert "must be > 0" in capsys.readouterr().err

    def test_chaos_nodes_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--chaos", "1.0", "--nodes", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_chaos_intensity_must_be_positive(self, capsys):
        for bad in ("0", "-1"):
            with pytest.raises(SystemExit):
                main(["fleet", "--chaos", bad])
            assert "must be > 0" in capsys.readouterr().err

    def test_chaos_retry_budget_rejects_negative(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--chaos", "1.0", "--retry-budget", "-1"])
        assert "must be >= 0" in capsys.readouterr().err

    def test_chaos_retry_backoff_rejects_nonpositive(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--chaos", "1.0", "--retry-backoff", "0"])
        assert "must be > 0" in capsys.readouterr().err

    def test_chaos_recovery_rejects_negative(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--chaos", "1.0", "--recovery", "-0.5"])
        assert "must be >= 0" in capsys.readouterr().err

    def test_chaos_rejects_non_numeric(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--chaos", "heavy"])
        assert "expected a number" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1", "x"])
    def test_soak_intensities_reject_bad_items(self, capsys, bad):
        # Every comma-separated item is a finite number >= 0; a bad one is
        # a usage error (exit 2), never a traceback or a soak run.
        try:
            code = main(["soak", f"--intensities=0,{bad}"])
        except SystemExit as exc:
            code = exc.code
        assert code == 2


class TestFleetCommand:
    def test_fleet_run_and_group_by_node_round_trip(self, capsys, tmp_path):
        trace = str(tmp_path / "fleet.trace.jsonl")
        assert main([
            "fleet", "--nodes", "2", "--policy", "baseline",
            "--routing", "power-aware", "--power-cap", "auto",
            "--trace-out", trace,
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet: 2 nodes" in out
        assert "power cap: budget=" in out and "[ok]" in out
        assert main(["trace", "summarize", trace, "--group-by", "node"]) == 0
        out = capsys.readouterr().out
        assert "node-summary=2" in out
        assert "powercap: budget_w=" in out

    def test_chaos_run_and_group_by_node_round_trip(self, capsys, tmp_path):
        trace = str(tmp_path / "chaos.trace.jsonl")
        assert main([
            "fleet", "--nodes", "2", "--policy", "retail", "--chaos", "1.0",
            "--seed", "2023", "--trace-out", trace,
        ]) == 0
        out = capsys.readouterr().out
        assert "chaos: 2 nodes" in out
        assert "chaos: crashes=" in out and "availability=" in out
        assert main(["trace", "summarize", trace, "--group-by", "node"]) == 0
        out = capsys.readouterr().out
        assert "node-summary=2" in out
        assert "faults: crashes=" in out

    def test_chaos_hier_mix_runs_as_one_fleet(self, capsys, tmp_path):
        trace = tmp_path / "mix.trace.jsonl"
        assert main([
            "fleet", "--nodes", "2", "--chaos", "1.0", "--hier", "ddpg",
            "--power-cap", "auto", "--seed", "2023",
            "--trace-out", str(trace),
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("hier: 2 nodes")
        assert "intensity=1, failover=on, algo=ddpg" in out
        assert out.splitlines()[1].split()[-1] == "avail"
        assert "chaos: crashes=" in out
        assert "power cap: budget=" in out
        assert "fleet agent: decisions=" in out
        meta = json.loads(trace.read_text().splitlines()[0])["meta"]
        assert meta["kind"] == "hier"
        assert list(meta)[:8] == [
            "kind", "app", "policy", "routing", "num_nodes",
            "intensity", "failover", "algo",
        ]

    def test_group_by_rejects_unknown_key(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace", "summarize", "x.jsonl", "--group-by", "core"])
        assert "invalid choice" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "table2" in out

    def test_experiment_fig5(self, capsys):
        assert main(["experiment", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "scaleFunc" in out

    def test_experiment_unknown_raises(self):
        with pytest.raises(KeyError):
            main(["experiment", "fig99"])

    def test_compare_rejects_unknown_policy(self, capsys):
        rc = main(["compare", "--app", "xapian", "--policies", "nonsense"])
        assert rc == 2

    def test_train_parser_defaults(self):
        args = build_parser().parse_args(["train", "--app", "moses"])
        assert args.app == "moses"
        assert args.episodes == 0
        assert args.fn is not None
