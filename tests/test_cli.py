import dataclasses

import pytest

from klexsim import monitor
from klexsim.cli import (
    INCONCLUSIVE,
    PASS,
    USAGE,
    VIOLATION,
    RunConfig,
    UsageError,
    build_simulator,
    exact_median,
    judge,
    main,
    run_campaign,
    run_once,
)
from klexsim.simnet import RoundRobinPolicy, Trace
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

    def test_ell_zero_rejected_by_name(self, star_file, capsys):
        assert main(["--topology", str(star_file), "--ell", "0"]) == USAGE
        assert capsys.readouterr().err == "error: ell must be at least 1\n"

    def test_timeout_zero_rejected(self, star_file, capsys):
        # a flag cannot pass None, so the message names only what it can pass
        assert main(["--topology", str(star_file), "--timeout", "0"]) == USAGE
        assert capsys.readouterr().err == "error: timeout must be at least 1 step\n"

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

    def test_malformed_topology_line_is_named(self, tmp_path, capsys):
        f = tmp_path / "bad.topo"
        f.write_text("n 3 root r\n# a comment\n\nr: a b\na r\nb: r\n")
        assert main(["--topology", str(f)]) == USAGE
        assert capsys.readouterr().err == "error: line 5: bad process line 'a r'\n"

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
        f.write_text("req 3 a 1 2\nreq 4 zz 1 2\n")
        assert main(["--topology", str(star_file), "--scenario", str(f)]) == USAGE
        assert capsys.readouterr().err == "error: line 2: unknown process 'zz'\n"

    def test_request_on_a_busy_process_names_its_line(self, star_file, tmp_path, capsys):
        f = tmp_path / "busy.scn"
        f.write_text("req 0 a 1 50\nreq 1 a 1 2\n")
        assert main(["--topology", str(star_file), "--scenario", str(f)]) == USAGE
        assert capsys.readouterr().err == (
            "error: line 2: request for 'a' at step 1 while its state is Req\n")

    @pytest.mark.parametrize("line, problem", [
        ("deliver zz 0", "unknown process 'zz'"), ("deliver a 1", "no channel 1")])
    def test_bad_replay_event_names_its_line(self, line, problem, star_file, tmp_path,
                                             capsys):
        f = tmp_path / "bad.rpl"
        f.write_text("skip\n" + line + "\n")
        argv = ["--topology", str(star_file), "--policy", "replay", "--replay", str(f)]
        assert main(argv) == USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: replay line 2: ") and problem in err
        assert "Traceback" not in err

    def test_disabled_replay_event_names_its_line(self, star_file, tmp_path, capsys):
        # b's channel is empty at the canonical start; the choice is on line 3,
        # after a comment and a blank line
        f = tmp_path / "late.rpl"
        f.write_text("# first\n\ndeliver b 0\n")
        argv = ["--topology", str(star_file), "--policy", "replay", "--replay", str(f)]
        assert main(argv) == USAGE
        err = capsys.readouterr().err
        assert err == "error: replay line 3: choice names disabled event\n"
        assert "Traceback" not in err

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
        ("--k", "5"), ("--ell", "2"), ("--cmax", "0"), ("--seed", "9"),
        ("--policy", "rand"), ("--budget", "3"), ("--timeout", "7"),
        ("--fault", "arbitrary"),
        # a flag given at its default value is still a flag given
        ("--k", "1"), ("--ell", "1"), ("--cmax", "1"), ("--seed", "0"),
        ("--policy", "rr"), ("--fault", "none"),
    ])
    def test_figure_with_run_flag_is_usage_error(self, flag, value, capsys):
        assert main(["--figure", "fig2-deadlock", flag, value]) == USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err

    @pytest.mark.parametrize("fault", ["none", "arbitrary"])
    def test_campaign_with_fault_is_usage_error(self, fault, star_file, capsys):
        argv = ["--topology", str(star_file), "--k", "1", "--ell", "2",
                "--campaign", "3", "--fault", fault]
        assert main(argv) == USAGE
        assert capsys.readouterr() == ("", "error: a campaign starts every seed from an "
                                       "arbitrary configuration; it takes no --fault\n")

    def test_campaign_with_replay_is_usage_error(self, star_file, tmp_path, capsys):
        # the replay names channels the first arbitrary starts leave empty;
        # it is refused before any seed runs, whatever the file holds
        f = tmp_path / "two.rpl"
        f.write_text("deliver a 0\ndeliver b 0\n")
        argv = ["--topology", str(star_file), "--k", "1", "--ell", "2",
                "--campaign", "3", "--policy", "replay", "--replay", str(f)]
        assert main(argv) == USAGE
        assert capsys.readouterr() == ("", "error: a replay fits one start; a campaign "
                                       "takes no --policy replay\n")
        cfg = RunConfig(parse_topology(STAR_TEXT), policy="replay", replay="/nonexistent")
        with pytest.raises(UsageError, match="a replay fits one start"):
            run_campaign(cfg, 3)

    def test_help_names_every_flag(self, capsys):
        assert main(["--help"]) == PASS
        out = capsys.readouterr().out
        names = [f.name for f in dataclasses.fields(RunConfig)] + ["figure", "campaign"]
        assert [name for name in names if f"--{name}" not in out] == []

    def test_non_integer_replay_channel_is_usage_error(self, star_file, tmp_path, capsys):
        f = tmp_path / "bad.replay"
        f.write_text("deliver a x\n")
        argv = ["--topology", str(star_file), "--policy", "replay", "--replay", str(f)]
        assert main(argv) == USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: replay line 1: ")
        assert "Traceback" not in err

    def test_replay_without_replay_policy_is_usage_error(self, star_file, capsys):
        argv = ["--topology", str(star_file), "--replay", "/nonexistent", "--budget", "50"]
        assert main(argv) == USAGE
        assert capsys.readouterr().err == "error: --replay needs --policy replay\n"

    @pytest.mark.parametrize("field, value, message", [
        ("policy", "fifo", "policy must be rr, rand or replay, not 'fifo'"),
        ("fault", "total", "fault must be none or arbitrary, not 'total'"),
        ("budget", -1, "budget must be non-negative"),
    ])
    def test_library_run_config_validated(self, field, value, message):
        cfg = RunConfig(parse_topology(STAR_TEXT), **{field: value})
        with pytest.raises(UsageError, match=f"^{message}$"):
            run_once(cfg)

    def test_negative_budget_is_usage_error(self, star_file, capsys):
        assert main(["--topology", str(star_file), "--budget", "-1"]) == USAGE
        assert capsys.readouterr() == ("", "error: budget must be non-negative\n")

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

    def test_trace_streamed_to_out_only(self, tmp_path, monkeypatch):
        drawn = []
        lines = Trace.lines
        monkeypatch.setattr(Trace, "lines", lambda trace: (
            drawn.append(line) or line for line in lines(trace)))
        cfg = RunConfig(parse_topology(STAR_TEXT), k=2, ell=3, budget=300)
        assert len(run_once(cfg)[2].records) == 300
        assert drawn == []
        cfg.out = str(tmp_path / "artifacts")
        _, _, trace = run_once(cfg)
        written = (tmp_path / "artifacts" / "trace.txt").read_text()
        assert drawn and written.endswith("\n") and written.splitlines() == list(trace.lines())

    def test_zero_budget_writes_an_empty_trace(self, star_file, tmp_path):
        out_dir = tmp_path / "artifacts"
        main(["--topology", str(star_file), "--budget", "0", "--out", str(out_dir)])
        assert (out_dir / "trace.txt").read_text() == ""
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

    def test_library_replay_scenario_and_out_agree_with_cli(
            self, star_file, scenario_file, tmp_path, capsys):
        replay = tmp_path / "steps.rpl"
        replay.write_text("deliver a 0\ndeliver a 0\nskip\ndeliver a 0\n")
        cli_dir, lib_dir = tmp_path / "cli", tmp_path / "lib"
        cli_code = main(["--topology", str(star_file), "--k", "2", "--ell", "3",
                         "--policy", "replay", "--replay", str(replay),
                         "--scenario", str(scenario_file), "--out", str(cli_dir)])
        cli_out = capsys.readouterr().out
        cfg = RunConfig(topology=parse_topology(STAR_TEXT), k=2, ell=3, policy="replay",
                        replay=str(replay), scenario=str(scenario_file), out=str(lib_dir))
        lib_code, lib_report, _ = run_once(cfg)
        assert (lib_code, lib_report) == (cli_code, cli_out)
        for name in ("trace.txt", "report.txt"):
            assert (lib_dir / name).read_text() == (cli_dir / name).read_text()
        assert "ended: replay-exhausted" in lib_report

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


class TestRandomPolicy:
    def test_same_seed_same_report(self, star_file, capsys):
        argv = ["--topology", str(star_file), "--policy", "rand", "--seed", "3"]
        reports = []
        for _ in range(2):
            assert main(argv) == PASS
            out, err = capsys.readouterr()
            assert err == ""
            reports.append(out)
        assert reports[0] == reports[1]
        assert "stabilization step: 0" in reports[0]


class TestJudge:
    """``judge`` is the one rule from a run's verdicts to its exit status."""

    @staticmethod
    def canonical_trace():
        sim = build_simulator(RunConfig(topology=parse_topology(STAR_TEXT), k=1, ell=2))
        return sim.run(sim.initial_configuration(), RoundRobinPolicy(), 200)

    def test_canonical_run_passes(self):
        status, stab, regressions, safety, fairness = judge(self.canonical_trace())
        assert (status, stab, regressions) == (PASS, 0, 0)
        assert safety.passed and fairness.passed

    def test_closure_regression_is_a_violation(self):
        # legit -> illegit -> legit: the run still stabilizes, safely, so
        # only the regression makes it fail
        trace = self.canonical_trace()
        mid = len(trace.records) // 2
        trace.records[mid] = trace.records[mid]._replace(legit=False)
        status, stab, regressions, safety, _ = judge(trace)
        assert (status, stab, regressions) == (VIOLATION, mid + 2, 1)
        assert safety.passed


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

    def test_half_integer_median_printed_exactly(self, star_file, capsys):
        # stabilization times 515 487 510 506 507 511: median (507 + 510) / 2
        argv = ["--topology", str(star_file), "--k", "1", "--ell", "2", "--campaign", "6"]
        assert main(argv) == PASS
        out = capsys.readouterr().out
        assert "stabilization steps: min=487 median=508.5 max=515 (budget 1200)\n" in out

    def test_exact_median_has_no_exponent(self):
        assert exact_median([5, 1, 3]) == "3"
        assert exact_median([2, 4]) == "3"
        assert exact_median([10**7, 10**7 + 3]) == "10000001.5"

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
