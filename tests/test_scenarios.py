import pytest

from klexsim.monitor import check_fairness
from klexsim.scenarios import (
    FIGURE_NAMES,
    deadlock_config,
    deadlock_simulator,
    deadlock_workload,
    livelock_config,
    livelock_replay,
    livelock_simulator,
    livelock_workload,
    run_deadlock_figure,
    run_figure,
    run_livelock_figure,
)
from klexsim.simnet import ReplayPolicy, RoundRobinPolicy


class TestDeadlockFigure:
    def test_diagnostic_quiesces_with_all_tokens_reserved(self):
        sim = deadlock_simulator(timeout=None)
        trace = sim.run(deadlock_config(sim), RoundRobinPolicy(), 2000,
                        workload=deadlock_workload())
        assert trace.ended == "quiescent"
        final = trace.records[-1].census
        assert final.res_tokens == 5 and final.push_tokens == 0
        # nobody reached its need of three
        hoards = sorted(len(trace.final.states[p].rset) for p in "abcd")
        assert hoards == [1, 1, 1, 2]
        verdict = check_fairness(trace)
        assert not verdict.passed and not verdict.inconclusive

    def test_full_run(self):
        result = run_deadlock_figure()
        assert result.reproduced
        assert result.recovered


class TestLivelockFigure:
    def test_replay_cycles_exactly(self):
        sim = livelock_simulator(timeout=None)
        fps = []
        trace = sim.run(
            livelock_config(sim, with_priority=False),
            ReplayPolicy(livelock_replay(3)),
            24,
            workload=livelock_workload(),
            observer=lambda cfg, rec: fps.append(cfg.fingerprint()),
        )
        assert len(fps) == 24
        assert fps[7] == fps[15] == fps[23]
        assert not any("a" in rec.entries for rec in trace.records)
        # r and b are served once per cycle
        r_entries = sum(1 for rec in trace.records if "r" in rec.entries)
        assert r_entries == 3

    def test_priority_token_breaks_the_cycle(self):
        sim = livelock_simulator(timeout=None)
        prio_steps = []
        trace = sim.run(
            livelock_config(sim, with_priority=True),
            RoundRobinPolicy(),
            3000,
            workload=livelock_workload(),
            observer=lambda cfg, rec: prio_steps.append(cfg.step - 1)
            if cfg.states["a"].prio is not None else None,
        )
        a_entry = next((step for step, rec in enumerate(trace.records, trace.first_step)
                        if "a" in rec.entries), None)
        assert a_entry is not None
        # a held the priority token while waiting, which is what shielded
        # its hoard from the pusher
        assert prio_steps and prio_steps[0] < a_entry

    def test_full_run(self):
        result = run_livelock_figure()
        assert result.reproduced
        assert result.recovered


class TestFigureDispatch:
    def test_names(self):
        assert set(FIGURE_NAMES) == {"fig2-deadlock", "fig3-livelock"}

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown figure"):
            run_figure("fig9-nope")
