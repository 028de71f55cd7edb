import math

import pytest

from klexsim.appmodel import (
    AppState,
    RandomWorkload,
    ScenarioError,
    Workload,
    WorkloadEvent,
    apply_workload,
    parse_scenario,
)
from klexsim.protocol import IN, OUT, REQ, ProcessState
from klexsim.topology import parse_topology

STAR = parse_topology("n 3 root r\nr: a b\na: r\nb: r\n")


def test_event_fires_out_to_req():
    states = {"p": ProcessState(state=OUT)}
    app = AppState()
    apply_workload([WorkloadEvent(5, "p", 2, 3)], app, states)
    assert states["p"].state == REQ
    assert states["p"].need == 2
    assert app.armed_duration["p"] == 3


def test_no_pending_event_leaves_states_alone():
    states = {"p": ProcessState(state=OUT)}
    apply_workload([], AppState(), states)
    assert states["p"].state == OUT


def test_overlapping_event_rejected():
    states = {"p": ProcessState(state=REQ, need=1)}
    with pytest.raises(ScenarioError, match="while its state"):
        apply_workload([WorkloadEvent(5, "p", 2, 3)], AppState(), states)


def test_tick_counts_down_and_reports_release():
    app = AppState()
    app.remaining["p"] = 1
    assert app.tick() == ["p"]
    assert app.release_cs("p")


def test_infinite_cs_never_releases():
    app = AppState()
    app.remaining["p"] = math.inf
    for _ in range(50):
        assert app.tick() == []
    assert not app.release_cs("p")


def test_idle_process_unchanged_by_tick():
    app = AppState()
    app.remaining["p"] = 0
    assert app.tick() == []
    assert app.remaining["p"] == 0


def test_enter_cs_consumes_armed_duration():
    app = AppState()
    app.armed_duration["p"] = 4
    app.enter_cs("p")
    assert app.remaining["p"] == 4
    assert not app.release_cs("p")


def test_enter_cs_without_event_uses_default():
    app = AppState()
    app.enter_cs("p")
    assert app.remaining["p"] == 1


def test_parse_scenario_roundtrip():
    wl = parse_scenario("# demo\nreq 5 a 2 10\nreq 7 b 1 inf\n", 3, STAR)
    assert wl.events[0] == WorkloadEvent(5, "a", 2, 10)
    assert wl.events[1].duration == math.inf
    assert wl.due(4, {}) == []
    assert [e.process for e in wl.due(7, {})] == ["a", "b"]
    assert wl.exhausted(8, {})


def test_scenario_need_above_k_rejected():
    with pytest.raises(ScenarioError, match="line 2: .*outside"):
        parse_scenario("req 0 b 1 1\nreq 0 a 4 1\n", 3, STAR)


def test_scenario_same_step_collision_rejected():
    with pytest.raises(ScenarioError, match="two events"):
        Workload([WorkloadEvent(3, "a", 1, 1), WorkloadEvent(3, "a", 2, 1)], k=3)


def test_scenario_collision_names_its_line():
    with pytest.raises(ScenarioError, match="^line 3: two events for 'a' at step 3$"):
        parse_scenario("req 3 a 1 1\nreq 0 b 1 1\nreq 3 a 2 1\n", 3, STAR)


def test_scenario_request_on_a_busy_process_names_its_line():
    # the events are sorted by step, and each keeps its own line
    wl = parse_scenario("# busy\nreq 4 b 1 1\nreq 0 a 1 50\n\nreq 1 a 1 2\n", 3, STAR)
    states = {pid: ProcessState(state=OUT) for pid in STAR.process_ids}
    apply_workload(wl.due(0, states), AppState(), states)
    with pytest.raises(ScenarioError, match="^line 5: request for 'a' at step 1 "
                                            "while its state is Req$"):
        wl.due(1, states)


def test_workload_without_lines_reports_no_line():
    wl = Workload([WorkloadEvent(2, "a", 1, 1)], k=1)
    with pytest.raises(ScenarioError, match="^request for 'a' at step 2 while its state is In$"):
        wl.due(2, {"a": ProcessState(state=IN)})


def test_scenario_bad_duration_rejected():
    with pytest.raises(ScenarioError, match="line 1: .*duration"):
        parse_scenario("req 0 a 1 0\n", 3, STAR)


def test_random_workload_deterministic_and_bounded():
    states = {p: ProcessState(state=OUT) for p in ["a", "b", "c"]}
    def draw(seed):
        wl = RandomWorkload(["a", "b", "c"], k=3, seed=seed, rate=0.9, max_duration=5)
        return [wl.due(s, states) for s in range(20)]
    a, b = draw(42), draw(42)
    assert a == b
    flat = [ev for evs in a for ev in evs]
    assert flat, "rate 0.9 should fire events"
    assert all(1 <= ev.need <= 3 and 1 <= ev.duration <= 5 for ev in flat)


def test_random_workload_skips_busy_processes():
    states = {"a": ProcessState(state=IN), "b": ProcessState(state=REQ, need=1)}
    wl = RandomWorkload(["a", "b"], k=2, seed=1, rate=1.0)
    assert wl.due(0, states) == []


def test_negative_step_rejected():
    with pytest.raises(ScenarioError, match="^event for 'a': negative step$"):
        WorkloadEvent(-1, "a", 1, 2).check(2)
    with pytest.raises(ScenarioError, match="^line 2: event for 'a': negative step$"):
        parse_scenario("req 0 b 1 1\nreq -1 a 1 2\n", 2, STAR)


def test_scenario_line_that_is_not_a_request_rejected():
    with pytest.raises(ScenarioError, match=r"^line 1: expected 'req <step> <process> "
                                            r"<need> <duration\|inf>'$"):
        parse_scenario("ask 0 a 1 1\n", 2, STAR)


def test_scenario_bad_number_rejected():
    with pytest.raises(ScenarioError, match="^line 1: bad number in 'req soon a 1 1'$"):
        parse_scenario("req soon a 1 1\n", 2, STAR)
