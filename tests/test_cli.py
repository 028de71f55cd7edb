import pytest

from klexsim import monitor
from klexsim.cli import (
    INCONCLUSIVE,
    PASS,
    USAGE,
    RunConfig,
    UsageError,
    main,
    run_campaign,
    run_once,
)
from klexsim.topology import parse_topology

STAR_TEXT = "n 3 root r\nr: a b\na: r\nb: r\n"
CHAIN_TEXT = "n 3 root r\nr: a\na: r b\nb: a\n"


@pytest.fixture
def star_file(tmp_path):
    f = tmp_path / "star.topo"
    f.write_text(STAR_TEXT)
    return f


@pytest.fixture
def scenario_file(tmp_path):
    f = tmp_path / "load.scn"
    f.write_text("req 3 a 2 4\nreq 5 b 1 2\n")
    return f


class TestValidation:
    def test_k_exceeding_ell_rejected(self, star_file, capsys):
        code = main(["--topology", str(star_file), "--k", "4", "--ell", "3"])
        assert code == USAGE
        assert "k must not exceed ell" in capsys.readouterr().err

    def test_replay_policy_needs_file(self):
        cfg = RunConfig(topology=parse_topology(STAR_TEXT), policy="replay")
        with pytest.raises(UsageError, match="replay requires"):
            cfg.validate()

    def test_missing_topology_is_usage_error(self, capsys):
        assert main(["--k", "1", "--ell", "1"]) == USAGE

    def test_unknown_figure_is_usage_error(self, capsys):
        assert main(["--figure", "fig7-unknown"]) == USAGE

    def test_bad_topology_file_is_usage_error(self, tmp_path, capsys):
        f = tmp_path / "bad.topo"
        f.write_text("n 2 root r\nr: a\na: r x\n")
        assert main(["--topology", str(f)]) == USAGE

    @pytest.mark.parametrize("flag", ["--topology", "--scenario", "--out"])
    def test_unusable_path_is_usage_error(self, flag, star_file, tmp_path, capsys):
        # a directory where a file is read, an existing file where a
        # directory is created
        path = star_file if flag == "--out" else tmp_path
        argv = ["--topology", str(star_file), "--budget", "10", flag, str(path)]
        assert main(argv) == USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_unknown_scenario_process_is_usage_error(self, star_file, tmp_path, capsys):
        f = tmp_path / "load.scn"
        f.write_text("req 3 zz 1 2\n")
        assert main(["--topology", str(star_file), "--scenario", str(f)]) == USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "zz" in err

    def test_campaign_with_scenario_is_usage_error(self, star_file, tmp_path, capsys):
        f = tmp_path / "bad.scn"
        f.write_text("not a scenario\n")
        argv = ["--topology", str(star_file), "--k", "2", "--ell", "3",
                "--campaign", "2", "--scenario", str(f)]
        assert main(argv) == USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "scenario" in err

    @pytest.mark.parametrize("flag, value", [
        ("--topology", "/nonexistent"), ("--scenario", "/nonexistent"),
        ("--replay", "/nonexistent"), ("--out", "/nonexistent"), ("--campaign", "3"),
    ])
    def test_figure_with_run_flag_is_usage_error(self, flag, value, capsys):
        assert main(["--figure", "fig2-deadlock", flag, value]) == USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err

    def test_non_integer_replay_channel_is_usage_error(self, star_file, tmp_path, capsys):
        f = tmp_path / "bad.replay"
        f.write_text("deliver a x\n")
        argv = ["--topology", str(star_file), "--policy", "replay", "--replay", str(f)]
        assert main(argv) == USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: replay line 1: ")
        assert "Traceback" not in err

    def test_zero_seed_campaign_rejected(self, star_file):
        cfg = RunConfig(topology=parse_topology(STAR_TEXT), k=1, ell=2)
        with pytest.raises(UsageError, match="at least one seed"):
            run_campaign(cfg, 0)


class TestRunOnce:
    def test_canonical_run_passes_with_stabilization_zero(self, star_file, capsys):
        code = main(["--topology", str(star_file), "--k", "2", "--ell", "3",
                     "--budget", "300"])
        out = capsys.readouterr().out
        assert code == PASS
        assert "stabilization step: 0" in out

    def test_arbitrary_fault_reports_finite_stabilization(self, star_file, capsys):
        code = main(["--topology", str(star_file), "--k", "2", "--ell", "3",
                     "--fault", "arbitrary", "--seed", "42"])
        out = capsys.readouterr().out
        assert code == PASS
        assert "stabilization step: " in out
        assert "stabilization step: never" not in out

    def test_scenario_requests_satisfied(self, star_file, scenario_file, capsys):
        code = main(["--topology", str(star_file), "--k", "2", "--ell", "3",
                     "--scenario", str(scenario_file), "--budget", "500"])
        out = capsys.readouterr().out
        assert code == PASS
        assert "requests: 2/2 satisfied" in out

    def test_artifacts_written(self, star_file, tmp_path):
        out_dir = tmp_path / "artifacts"
        code = main(["--topology", str(star_file), "--k", "2", "--ell", "3",
                     "--budget", "100", "--out", str(out_dir)])
        assert code == PASS
        trace = (out_dir / "trace.txt").read_text()
        assert "event=deliver" in trace
        assert (out_dir / "report.txt").exists()

    def test_tight_budget_is_inconclusive(self, star_file, capsys):
        # arbitrary fault with almost no budget cannot stabilize
        code = main(["--topology", str(star_file), "--k", "2", "--ell", "3",
                     "--fault", "arbitrary", "--seed", "7", "--budget", "2"])
        assert code == INCONCLUSIVE

    def test_library_and_cli_agree(self, star_file, capsys):
        argv = ["--topology", str(star_file), "--k", "2", "--ell", "3",
                "--fault", "arbitrary", "--seed", "5", "--budget", "800"]
        cli_code = main(argv)
        cli_out = capsys.readouterr().out
        cfg = RunConfig(topology=parse_topology(STAR_TEXT), k=2, ell=3,
                        seed=5, fault="arbitrary", budget=800, cmax=1)
        lib_code, lib_report, _ = run_once(cfg)
        assert cli_code == lib_code
        assert cli_out == lib_report

    def test_each_verdict_computed_once(self, monkeypatch):
        names = ("stabilization_time", "check_safety", "check_fairness",
                 "collect_requests")
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _fn=getattr(monitor, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(monitor, name, counted)
        cfg = RunConfig(topology=parse_topology(STAR_TEXT), k=2, ell=3,
                        fault="arbitrary", seed=5, budget=800)
        run_once(cfg)
        assert calls == dict.fromkeys(names, 1)

    def test_unsettled_run_computes_stabilization_once(self, monkeypatch):
        calls = []
        real = monitor.stabilization_time

        def counted(trace):
            calls.append(real(trace))
            return calls[-1]
        monkeypatch.setattr(monitor, "stabilization_time", counted)
        cfg = RunConfig(topology=parse_topology(STAR_TEXT), k=2, ell=3,
                        fault="arbitrary", seed=7, budget=2)
        status, _, _ = run_once(cfg)
        assert status == INCONCLUSIVE
        assert calls == [None]


class TestReplayPolicy:
    def test_replay_run_via_cli(self, star_file, tmp_path, capsys):
        replay = tmp_path / "steps.rpl"
        replay.write_text("deliver a 0\ndeliver a 0\nskip\ndeliver a 0\n")
        code = main(["--topology", str(star_file), "--k", "2", "--ell", "3",
                     "--policy", "replay", "--replay", str(replay),
                     "--budget", "50"])
        out = capsys.readouterr().out
        assert code == PASS
        assert "ended: replay-exhausted" in out


class TestCampaign:
    def test_small_campaign_passes(self, star_file, capsys):
        code = main(["--topology", str(star_file), "--k", "2", "--ell", "3",
                     "--cmax", "2", "--campaign", "10", "--timeout", "200"])
        out = capsys.readouterr().out
        assert code == PASS
        assert "10 seeds, 10 stabilized" in out
        assert "max=" in out

    def test_determinism_across_runs(self, star_file, capsys):
        argv = ["--topology", str(star_file), "--k", "2", "--ell", "3",
                "--campaign", "5", "--seed", "3"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestFigures:
    def test_fig2_passes(self, capsys):
        assert main(["--figure", "fig2-deadlock"]) == PASS
        out = capsys.readouterr().out
        assert "failure reproduced in diagnostic mode: yes" in out

    def test_fig3_passes(self, capsys):
        assert main(["--figure", "fig3-livelock"]) == PASS
        out = capsys.readouterr().out
        assert "satisfies all requests: yes" in out
