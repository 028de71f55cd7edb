import copy
import dataclasses
import gc
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klexsim import monitor, protocol, scenarios, simnet
from klexsim.appmodel import RandomWorkload, RepeatingWorkload, Workload, WorkloadEvent
from klexsim.monitor import (
    check_fairness,
    check_safety,
    closure_regressions,
    collect_requests,
    stabilization_time,
)
from klexsim.protocol import (
    IN,
    OUT,
    REQ,
    Ctrl,
    HandlerOutput,
    PrioT,
    ProcessState,
    PushT,
    Reserved,
    ResT,
    _NO_ACTIONS,
    dispatch,
    local_actions,
)
from klexsim.simnet import (
    RandomPolicy,
    ReplayPolicy,
    RoundRobinPolicy,
    SchedulerError,
    SimParams,
    Simulator,
    default_timeout,
    format_replay,
    parse_replay,
    traversal_allowance,
)
from klexsim.topology import forward_channel, parse_topology, random_tree

STAR = parse_topology("n 3 root r\nr: a b\na: r\nb: r\n")
CHAIN = parse_topology("n 3 root r\nr: a\na: r b\nb: a\n")


def make_sim(topo=STAR, k=2, ell=3, cmax=2, timeout=500):
    return Simulator(topo, SimParams(k=k, ell=ell, cmax=cmax, timeout=timeout))


class TestParams:
    def test_k_greater_than_ell_rejected(self):
        with pytest.raises(ValueError, match="k must not exceed ell"):
            SimParams(k=4, ell=3, cmax=0, timeout=None).validate()

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError):
            SimParams(k=1, ell=1, cmax=0, timeout=0).validate()

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            SimParams(k=0, ell=1, cmax=0, timeout=None).validate()

    def test_negative_cmax_rejected(self):
        with pytest.raises(ValueError, match="^cmax must be non-negative$"):
            SimParams(k=1, ell=1, cmax=-1, timeout=None).validate()


class TestInitialConfiguration:
    def test_token_complement_queued_in_ring_channel(self):
        sim = make_sim()
        cfg = sim.initial_configuration()
        q = cfg.channels[("a", 0)]  # root's channel 0 leads to a
        kinds = [type(m).__name__ for m in q]
        assert kinds == ["PrioT", "ResT", "ResT", "ResT", "PushT", "Ctrl"]
        assert all(not cfg.channels[key] for key in sim.channel_keys if key != ("a", 0))

    def test_legitimate_from_step_zero(self):
        sim = make_sim()
        cfg = sim.initial_configuration()
        assert sim.check(cfg)[1]

    def test_stays_legitimate(self):
        sim = make_sim()
        trace = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 600)
        assert stabilization_time(trace) == 0
        assert all(rec.legit for rec in trace.records)


class TestStep:
    def test_functional_step_leaves_input_untouched(self):
        sim = make_sim()
        cfg = sim.initial_configuration()
        nxt = sim.step(cfg, STAR.ring.slot["a"][0])
        assert len(cfg.channels[("a", 0)]) == 6
        assert len(nxt.channels[("a", 0)]) == 5
        assert nxt.step == cfg.step + 1

    def test_delivery_moves_token_into_rset(self):
        sim = make_sim()
        cfg = sim.empty_configuration()
        cfg.states["a"].state = REQ
        cfg.states["a"].need = 1
        cfg.channels[("a", 0)].append(ResT(uid=9))
        nxt = sim.step(cfg, STAR.ring.slot["a"][0])
        # token reserved, then the request is immediately satisfiable
        assert nxt.states["a"].rset[0].uid == 9
        assert nxt.states["a"].state == IN

    def test_replenished_tokens_enqueued_in_send_order(self):
        # deliver a wrapping Ctrl to the root of a deficient system
        sim = make_sim(ell=2)
        cfg = sim.empty_configuration()
        cfg.states["r"].succ = 1
        cfg.states["r"].myc = 5
        cfg.channels[("r", 1)].append(Ctrl(5, False, 0, 0))
        nxt = sim.step(cfg, STAR.ring.slot["r"][1])
        q = nxt.channels[("a", 0)]
        assert [type(m).__name__ for m in q] == ["PrioT", "ResT", "ResT", "PushT", "Ctrl"]
        rep = sim.check(nxt)[0]
        assert rep.species() == (2, 1, 1)

    def test_delivery_from_empty_channel_is_structural_error(self):
        sim = make_sim()
        cfg = sim.empty_configuration()
        with pytest.raises(SchedulerError):
            sim.step(cfg, STAR.ring.slot["a"][0])

    def test_entry_starts_armed_or_default_section(self):
        sim = make_sim(timeout=None)
        cfg = sim.empty_configuration()
        for pid in ("a", "b"):
            cfg.states[pid].state = REQ
            cfg.states[pid].need = 1
            cfg.states[pid].rset = [Reserved(0)]
        cfg.app.armed_duration["a"] = 4
        sim.stamp_uids(cfg)
        nxt = sim.step(cfg, None)
        assert nxt.states["a"].state == nxt.states["b"].state == IN
        assert nxt.app.remaining == {"a": 4, "b": 1}
        assert nxt.app.armed_duration == {}

    def test_step_stamps_no_start(self):
        # ``sim.step`` is a search's successor function and stamps no start:
        # a unit it passes on keeps -1, while the units the root mints get
        # uids
        sim = make_sim(ell=2)
        cfg = sim.empty_configuration()
        cfg.channels[("a", 0)].append(ResT())
        nxt = sim.step(cfg, STAR.ring.slot["a"][0])
        assert [m.uid for m in nxt.channels[("r", 0)]] == [-1]
        assert nxt.next_uid == 0
        nxt.states["r"].succ, nxt.states["r"].myc = 1, 5
        nxt.channels[("r", 1)].append(Ctrl(5, False, 0, 0))
        nxt = sim.step(nxt, STAR.ring.slot["r"][1])
        units = [m for q in nxt.channels.values() for m in q if isinstance(m, ResT)]
        assert sorted(m.uid for m in units) == [-1, 0, 1]

    def test_fifo_order_preserved(self):
        sim = make_sim()
        cfg = sim.empty_configuration()
        cfg.channels[("a", 0)].extend([ResT(uid=1), ResT(uid=2), ResT(uid=3)])
        nxt = sim.step(cfg, STAR.ring.slot["a"][0])
        assert [m.uid for m in nxt.channels[("a", 0)]] == [2, 3]
        # forwarded token went to a -> r
        assert [m.uid for m in nxt.channels[("r", 0)]] == [1]

    def test_long_channel_is_delivered_front_first(self):
        # a hand-built channel longer than any benchmark workload's, each
        # message a distinct object, drained one delivery per step; a only
        # forwards towards r, so nothing joins the channel behind them
        sim = make_sim(timeout=None)
        cfg = sim.empty_configuration()
        kinds = (lambda i: ResT(uid=i), lambda i: PushT(), lambda i: PrioT(),
                 lambda i: Ctrl(i, False, 0, 0))
        msgs = [kinds[i % 4](i) for i in range(25)]
        cfg.channels[("a", 0)].extend(msgs)
        t = STAR.ring.slot["a"][0]
        for i in range(len(msgs)):
            cfg = sim.step(cfg, t)
            q = cfg.channels[("a", 0)]
            assert type(q) is list
            assert len(q) == len(msgs) - i - 1
            assert all(a is b for a, b in zip(q, msgs[i + 1:])), i
        assert t not in sim.enabled_events(cfg)


class TestTimeout:
    def test_fires_after_threshold_of_silence(self):
        sim = make_sim(timeout=5)
        cfg = sim.empty_configuration()
        trace = sim.run(cfg, RoundRobinPolicy(), 6)
        fired = [step for step, rec in enumerate(trace.records, trace.first_step)
                 if rec.timeout_fired]
        assert fired == [5]  # timer reaches 5 after five idle steps
        ctrl = trace.final.channels[("a", 0)][0]
        assert ctrl == Ctrl(0, False, 0, 0)

    def test_no_fire_below_threshold(self):
        sim = make_sim(timeout=5)
        cfg = sim.empty_configuration()
        trace = sim.run(cfg, RoundRobinPolicy(), 5)
        assert not any(rec.timeout_fired for rec in trace.records)

    def test_valid_ctrl_restarts_timer(self):
        sim = make_sim(timeout=6)
        cfg = sim.empty_configuration()
        cfg.timer = 5
        cfg.states["r"].succ = 0
        cfg.channels[("r", 0)].append(Ctrl(0, False, 0, 0))
        nxt = sim.step(cfg, STAR.ring.slot["r"][0])
        assert nxt.timer == 0

    def test_invalid_ctrl_does_not_restart_timer(self):
        sim = make_sim(timeout=60)
        cfg = sim.empty_configuration()
        cfg.timer = 5
        cfg.states["r"].succ = 0
        cfg.channels[("r", 0)].append(Ctrl(3, False, 0, 0))  # stale counter
        nxt = sim.step(cfg, STAR.ring.slot["r"][0])
        assert nxt.timer == 6

    def test_disabled_timeout_never_fires(self):
        sim = make_sim(timeout=None)
        cfg = sim.empty_configuration()
        trace = sim.run(cfg, RoundRobinPolicy(), 50)
        assert trace.ended == "quiescent"
        assert not any(rec.timeout_fired for rec in trace.records)


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        for policy_cls in (lambda: RoundRobinPolicy(), lambda: RandomPolicy(7)):
            sim1, sim2 = make_sim(), make_sim()
            t1 = sim1.run(sim1.inject_arbitrary(3), policy_cls(), 300)
            t2 = sim2.run(sim2.inject_arbitrary(3), policy_cls(), 300)
            assert list(t1.lines()) == list(t2.lines())

    def test_different_seeds_differ(self):
        sim = make_sim()
        c1, c2 = sim.inject_arbitrary(1), sim.inject_arbitrary(2)
        assert c1.fingerprint() != c2.fingerprint()

    def test_zero_budget_returns_initial(self):
        sim = make_sim()
        cfg = sim.initial_configuration()
        trace = sim.run(cfg, RoundRobinPolicy(), 0)
        assert trace.records == []
        assert trace.final.fingerprint() == cfg.fingerprint()


class TestInjection:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(2, 10), st.integers(0, 3))
    def test_structural_bounds(self, seed, n, cmax):
        topo = random_tree(seed, n)
        sim = Simulator(topo, SimParams(k=2, ell=4, cmax=cmax, timeout=None))
        cfg = sim.inject_arbitrary(seed)
        mod = sim.modulus
        for key in sim.channel_keys:
            assert len(cfg.channels[key]) <= cmax
        for pid in topo.process_ids:
            s = cfg.states[pid]
            assert len(s.rset) <= 2
            assert 0 <= s.myc < mod
            assert 0 <= s.succ < topo.degree(pid)
            assert 0 <= s.need <= 2
            assert s.state in (REQ, IN, OUT)
            assert s.prio is None or 0 <= s.prio < topo.degree(pid)
            assert s.stoken <= 5 and s.spush <= 2 and s.sprio <= 2

    def test_cmax_zero_means_empty_channels(self):
        sim = make_sim(cmax=0)
        cfg = sim.inject_arbitrary(11)
        assert all(not cfg.channels[key] for key in sim.channel_keys)

    def test_excess_tokens_realizable(self):
        # frozen seed producing more resource tokens than ell
        sim = make_sim(k=3, ell=3, cmax=3)
        for seed in range(50):
            rep = sim.check(sim.inject_arbitrary(seed))[0]
            if rep.res_tokens > 3:
                return
        pytest.fail("no seed among 0..49 produced an excess of resource tokens")

    def test_countdowns_positive_from_arbitrary_starts(self):
        # a countdown of 0 drawn for a process in In would outlive its
        # section: the process leaves at once and a tick skips the entry
        for seed in range(50):
            sim = Simulator(random_tree(seed, 4), SimParams(k=2, ell=3, cmax=1, timeout=30))
            cfg0 = sim.inject_arbitrary(seed)
            assert_countdowns_running(cfg0, -1)
            sim.run(cfg0, RandomPolicy(seed), 50,
                    observer=lambda cfg, rec: assert_countdowns_running(cfg, cfg.step - 1))

    def test_uids_all_distinct(self):
        sim = make_sim(cmax=3)
        cfg = sim.inject_arbitrary(23)
        uids = [m.uid for key in sim.channel_keys for m in cfg.channels[key]
                if isinstance(m, ResT)]
        uids += [e.uid for pid in STAR.process_ids for e in cfg.states[pid].rset]
        assert len(uids) == len(set(uids))
        assert all(u >= 0 for u in uids)


class TestPolicies:
    def test_round_robin_serves_every_enabled_channel(self):
        sim = make_sim(timeout=None)
        cfg = sim.initial_configuration()
        trace = sim.run(cfg, RoundRobinPolicy(), 300)
        # fairness window: every process delivers within any window of
        # slots * (max queue) steps; tokens circulate forever, so every
        # process must appear as a deliver target regularly
        window = (2 * (STAR.n - 1) + 1) * (3 + 3)
        steps_by_proc = {pid: [] for pid in STAR.process_ids}
        for line in trace.lines():
            if "event=deliver" in line:
                proc = line.split("proc=")[1].split()[0]
                steps_by_proc[proc].append(int(line.split()[0][len("step="):]))
        for pid, steps in steps_by_proc.items():
            assert steps, f"{pid} never scheduled"
            gaps = [b - a for a, b in zip(steps, steps[1:])]
            assert max(gaps) <= window, f"{pid} starved for {max(gaps)} steps"

    def test_replay_roundtrip_and_validation(self):
        text = "deliver a 0\nskip\ntimeout\n"
        slots = [STAR.ring.slot["a"][0], None, len(STAR.ring.keys)]
        assert parse_replay(text, STAR) == slots
        assert format_replay(slots, STAR) == text
        for bad in ("deliver a", "deliver a x", "deliver a -1", "timeout 3", "fly",
                    "deliver a 7", "deliver zz 0"):
            with pytest.raises(SchedulerError, match="replay line 2: "):
                parse_replay("skip\n" + bad + "\n", STAR)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10**6), st.data())
    def test_format_then_parse_is_identity(self, n, seed, data):
        topo = random_tree(seed, n)
        slot = st.one_of(st.none(), st.integers(0, len(topo.ring.keys)))
        slots = data.draw(st.lists(slot, max_size=30))
        assert parse_replay(format_replay(slots, topo), topo) == slots

    def test_replay_disabled_event_is_error(self):
        sim = make_sim()
        cfg = sim.empty_configuration()
        for t in (STAR.ring.slot["a"][0], len(sim.channel_keys)):
            with pytest.raises(SchedulerError, match="replay choice 1 names disabled event"):
                sim.step(cfg, t)

    def test_replay_exhaustion_ends_run(self):
        sim = make_sim()
        cfg = sim.initial_configuration()
        trace = sim.run(cfg, ReplayPolicy([STAR.ring.slot["a"][0], None]), 10)
        assert trace.ended == "replay-exhausted"
        assert len(trace.records) == 2

    def test_exhausted_replay_idles_when_wrapped(self):
        # past its last choice a replay chooses None, so a run through a
        # policy that wraps one (not itself a ReplayPolicy) idles to its budget
        sim = make_sim()
        a0 = STAR.ring.slot["a"][0]
        policy = RecordingPolicy(ReplayPolicy([a0]))
        trace = sim.run(sim.initial_configuration(), policy, 3)
        assert trace.ended == "budget"
        assert policy.choices == [a0, None, None]
        assert [rec.body for rec in trace.records[1:]] == ["", ""]


class FullScanRoundRobin:
    """Reference round robin over ``count`` slots: walks every slot from the
    one after the last served until it meets an enabled one."""

    def __init__(self, count: int) -> None:
        self.count = count
        self._idx = -1

    def choose(self, enabled):
        if not enabled:
            return None
        enabled_set = set(enabled)
        for off in range(1, self.count + 1):
            i = (self._idx + off) % self.count
            if i in enabled_set:
                self._idx = i
                return i
        return None


@pytest.mark.pin
class TestRoundRobinMatchesFullScan:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_choices(self, seed):
        rng = random.Random(seed)
        sim = Simulator(random_tree(seed, 2 + seed), SimParams(1, 1, 1, None))
        count = len(sim.channel_keys) + 1  # the ring slots, then the timeout
        for with_timeout in (False, True):
            rr, ref = RoundRobinPolicy(), FullScanRoundRobin(count)
            candidates = range(count if with_timeout else count - 1)
            density = rng.random()
            for _ in range(500):
                enabled = [t for t in candidates if rng.random() < density]
                assert rr.choose(enabled) == ref.choose(enabled)
                assert rr._idx == ref._idx


@pytest.mark.pin
class TestClone:
    """``Configuration.clone`` copies everything a step may change."""

    def configurations(self):
        for seed in range(200):
            n, cmax = 2 + seed % 11, seed % 4
            topo = random_tree(seed, n)
            sim = Simulator(topo, SimParams(k=2, ell=3, cmax=cmax, timeout=None))
            cfg = sim.inject_arbitrary(seed)
            for pid in topo.process_ids:
                if cfg.states[pid].state == REQ:
                    cfg.app.armed_duration[pid] = 1 + seed % 3
            cfg.step, cfg.timer = seed, seed % 7
            yield topo, cfg

    def test_equals_deepcopy(self):
        running = 0
        for _, cfg in self.configurations():
            running += any(left > 0 for left in cfg.app.remaining.values())
            assert cfg.clone() == copy.deepcopy(cfg)
        assert running > 100

    def test_mutating_the_clone_leaves_the_original(self):
        mutations = (
            lambda c, pid, key: setattr(c.states[pid], "myc", c.states[pid].myc + 1),
            lambda c, pid, key: c.states[pid].rset.append(Reserved(0, 10**6)),
            lambda c, pid, key: c.channels[key].append(PushT()),
            lambda c, pid, key: c.app.remaining.__setitem__(pid, 9),
            lambda c, pid, key: c.app.armed_duration.__setitem__(pid, 9),
        )
        for topo, cfg in self.configurations():
            before = cfg.fingerprint()
            pid = topo.process_ids[cfg.step % topo.n]
            key = topo.ring.keys[cfg.step % len(topo.ring.keys)]
            for mutate in mutations:
                nxt = cfg.clone()
                mutate(nxt, pid, key)
                assert nxt.fingerprint() != before
                assert cfg.fingerprint() == before

    def test_clone_channels_are_independent_lists(self):
        for topo, cfg in self.configurations():
            nxt = cfg.clone()
            for key in topo.ring.keys:
                q, q2 = cfg.channels[key], nxt.channels[key]
                assert type(q) is list and type(q2) is list and q2 is not q
                before = list(q)
                q2.append(PushT())
                assert q == before
                if before:
                    q.pop(0)
                    assert q2 == before + [PushT()]

    def test_clone_rsets_are_independent(self):
        for topo, cfg in self.configurations():
            nxt = cfg.clone()
            for pid in topo.process_ids:
                rset, rset2 = cfg.states[pid].rset, nxt.states[pid].rset
                assert rset2 == rset and rset2 is not rset
                rset2.append(Reserved(0, 10**6))
                assert Reserved(0, 10**6) not in rset

    def test_process_state_copy(self):
        for topo, cfg in self.configurations():
            for st_ in cfg.states.values():
                dup = st_.copy()
                assert dup == st_ and dup is not st_
                assert dup.rset == st_.rset and dup.rset is not st_.rset

    def test_process_state_is_slotted(self):
        assert not hasattr(ProcessState(), "__dict__")


def assert_countdowns_running(cfg, step):
    """Every ``remaining`` entry is a positive countdown of a process in In."""
    for pid, left in cfg.app.remaining.items():
        assert left > 0, (step, pid, left)
        assert cfg.states[pid].state == IN, (step, pid)


class TestWorkloadIntegration:
    def test_request_satisfied_in_idle_system(self):
        sim = make_sim(timeout=None)
        cfg = sim.initial_configuration()
        wl = Workload([WorkloadEvent(2, "b", 2, 3)], k=2)
        trace = sim.run(cfg, RoundRobinPolicy(), 200, workload=wl)
        steps = list(enumerate(trace.records, trace.first_step))
        entered = [step for step, rec in steps if "b" in rec.entries]
        assert entered, "request never satisfied"
        # satisfied within one ring circulation's worth of deliveries
        assert entered[0] <= 2 + 4 * (3 + 3)
        # and the critical section ends after its three-step duration
        exits = [step for step, rec in steps
                 for (pid, a, b) in rec.transitions if pid == "b" and b == OUT]
        assert exits and exits[0] == entered[0] + 3

    def test_cs_duration_one(self):
        sim = make_sim(timeout=None)
        cfg = sim.initial_configuration()
        wl = Workload([WorkloadEvent(0, "a", 1, 1)], k=2)
        trace = sim.run(cfg, RoundRobinPolicy(), 100, workload=wl)
        steps = list(enumerate(trace.records, trace.first_step))
        enter = next(step for step, r in steps if "a" in r.entries)
        exit_ = next(step for step, r in steps
                     for (pid, a, b) in r.transitions if pid == "a" and b == OUT)
        assert exit_ == enter + 1

    def test_running_section_is_not_quiescence(self):
        # no timer, every channel empty and no workload, but a's critical
        # section is still counting down: the run must go on until the
        # section ends and a's units are released into the ring
        sim = make_sim(timeout=None)
        cfg = sim.empty_configuration()
        st_ = cfg.states["a"]
        st_.state, st_.need, st_.rset = IN, 2, [Reserved(0), Reserved(0)]
        sim.stamp_uids(cfg)
        cfg.app.remaining["a"] = 3
        trace = sim.run(cfg, RoundRobinPolicy(), 4)
        assert (trace.ended, len(trace.records)) == ("budget", 4)
        assert [rec.transitions for rec in trace.records[:3]] == [(), (), (("a", IN, OUT),)]
        assert next(trace.lines()) == ("step=2 proc=a event=local msg=actions ch=- "
                                       "sends=[0:ResT,0:ResT]")
        assert trace.final.states["a"].rset == []

    def test_finished_sections_leave_remaining(self):
        sim = canonical_sim(random_tree(5, 6))
        wl = RandomWorkload(sim.topo.process_ids, k=2, seed=5, rate=0.3, max_duration=4)
        seen = []

        def observe(cfg, rec):
            seen.append(len(cfg.app.remaining))
            assert_countdowns_running(cfg, cfg.step - 1)

        trace = sim.run(sim.initial_configuration(), RandomPolicy(5), 1500, wl, observer=observe)
        assert sum(len(rec.entries) for rec in trace.records) > 50
        assert max(seen) > 0


@pytest.mark.pin
class TestQuiescence:
    """With the timer off, a run ends quiescent once nothing can ever happen
    again: no message in any channel, no section counting down, and the
    workload out of events; and never before its first step, whose pass over
    every process may find a start's guards true."""

    def test_start_gets_its_pass_before_quiescence(self):
        # b already holds the one unit it needs: nothing is in flight, yet
        # b enters at step 0, as one idle step shows
        sim = make_sim(timeout=None)
        cfg = sim.empty_configuration()
        b = cfg.states["b"]
        b.state, b.need, b.rset = REQ, 1, [Reserved(0)]
        sim.stamp_uids(cfg)
        assert sim.step(cfg, None).states["b"].state == IN
        trace = sim.run(cfg, RoundRobinPolicy(), 5)
        assert trace.records[0].entries == ("b",)
        assert check_fairness(trace).passed

    def test_random_workload_goes_quiet_after_its_last_step(self):
        # every process requests at step 0, no token ever comes, and the
        # workload is out of events once step 3 is past
        sim = make_sim(timeout=None)
        wl = RandomWorkload(STAR.process_ids, k=2, seed=0, rate=1.0, last_step=3)
        trace = sim.run(sim.empty_configuration(), RoundRobinPolicy(), 50, workload=wl)
        assert (trace.ended, len(trace.records)) == ("quiescent", 4)
        assert sorted(pid for pid, _ in trace.records[0].requests) == sorted(STAR.process_ids)

    def test_repeating_workload_goes_quiet_once_no_one_is_idle(self):
        # b requests at step 0 and waits for a unit that no token in the
        # network can bring: with no listed process at Out the workload is
        # out of events, and the starvation is definite
        sim = make_sim(timeout=None)
        wl = RepeatingWorkload({"b": (1, 2)}, k=2)
        trace = sim.run(sim.empty_configuration(), RoundRobinPolicy(), 6, workload=wl)
        assert (trace.ended, len(trace.records)) == ("quiescent", 1)
        assert trace.records[0].requests == (("b", 1),)
        fairness = check_fairness(trace)
        assert not fairness.passed and not fairness.inconclusive

    def test_repeating_workload_goes_quiet_once_pinned(self):
        # b holds the one unit at the start and enters; its section ends,
        # it releases the unit, is back at Out and requests again, pinned
        # this time.  The unit comes round to it, b enters for good, and
        # only then is nothing left to happen
        sim = make_sim(timeout=None)
        cfg = sim.empty_configuration()
        b = cfg.states["b"]
        b.state, b.need, b.rset = REQ, 1, [Reserved(0)]
        sim.stamp_uids(cfg)
        wl = RepeatingWorkload({"b": (1, float("inf"))}, k=2)
        trace = sim.run(cfg, RoundRobinPolicy(), 50, workload=wl)
        assert trace.ended == "quiescent"
        assert [rec.entries for rec in trace.records if rec.entries] == [("b",), ("b",)]
        assert [rec.requests for rec in trace.records if rec.requests] == [(("b", 1),)]
        assert trace.final.states["b"].state == IN
        assert not any(trace.final.channels.values())
        assert check_fairness(trace).passed


class RecordingPolicy:
    """Delegates to ``inner`` and records every choice, idle steps as None."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.choices = []

    def choose(self, enabled):
        t = self.inner.choose(enabled)
        self.choices.append(t)
        return t


@pytest.mark.pin
class TestWokenOnlySweep:
    """``run`` passes only over processes whose inputs changed; a ``sim.step``
    chain passes over every process each step.  Driven by the same choices
    from an arbitrary start, both must produce the same configurations."""

    def assert_equivalent(self, sim, cfg0, make_workload, seed, steps=300, inner=None):
        order = sim.topo.process_ids
        policy = RecordingPolicy(RandomPolicy(seed) if inner is None else inner)
        from_run = []
        trace = sim.run(cfg0, policy, steps, workload=make_workload(),
                        observer=lambda cfg, rec: from_run.append(
                            (cfg.fingerprint(), cfg.timer, sorted(rec.entries))))
        assert len(from_run) == steps
        cfg, workload, from_step = cfg0, make_workload(), []
        for t in policy.choices:
            nxt = sim.step(cfg, t, workload)
            entered = sorted(pid for pid in order if nxt.states[pid].state == IN
                             and cfg.states[pid].state != IN)
            from_step.append((nxt.fingerprint(), nxt.timer, entered))
            cfg = nxt
        assert from_step == from_run
        return trace

    @pytest.mark.parametrize("seed", range(20))
    def test_random_workload(self, seed):
        topo = random_tree(seed, 2 + seed % 6)
        sim = Simulator(topo, SimParams(k=2, ell=3, cmax=2, timeout=30))
        trace = self.assert_equivalent(
            sim, sim.inject_arbitrary(seed),
            lambda: RandomWorkload(topo.process_ids, 2, seed, rate=0.2, max_duration=4),
            seed)
        assert any(rec.entries for rec in trace.records)

    @pytest.mark.parametrize("seed", range(20))
    def test_livelock_workload(self, seed):
        sim = scenarios.livelock_simulator(timeout=30)
        cfg0 = sim.inject_arbitrary(seed)
        rng = random.Random(seed)
        for pid in sim.topo.process_ids:  # in-flight sections, some pinned
            if cfg0.states[pid].state == IN and rng.random() < 0.3:
                cfg0.app.remaining[pid] = float("inf")
        self.assert_equivalent(sim, cfg0, scenarios.livelock_workload, seed)

    @pytest.mark.parametrize("rate", [0.0, 0.02])
    @pytest.mark.parametrize("n", [4, 10])
    def test_legitimate_round_robin(self, n, rate):
        # the regime of pure forwards: from the canonical start, tokens pass
        # processes that do not want them, round the ring past controller wraps
        topo = random_tree(n, n)
        sim = canonical_sim(topo)
        trace = self.assert_equivalent(
            sim, sim.initial_configuration(),
            lambda: RandomWorkload(topo.process_ids, 2, n, rate=rate, max_duration=4),
            n, steps=600, inner=RoundRobinPolicy())
        assert any(rec.traversal_end for rec in trace.records)
        assert all(rec.legit for rec in trace.records)


def scan_enabled(sim, cfg):
    """``enabled_events`` by looking at every channel, as the index must give:
    the ring slots of the non-empty channels, ascending, then the timeout's."""
    ring = sim.topo.ring
    enabled = sorted(ring.slot[pid][ch] for (pid, ch), q in cfg.channels.items() if q)
    if sim.params.timeout is not None and cfg.timer >= sim.params.timeout:
        enabled.append(len(sim.channel_keys))
    return enabled


def untagged(cfg):
    """The resource units of ``cfg`` without a uid, in channels and RSets."""
    return ([m for q in cfg.channels.values() for m in q if isinstance(m, ResT) and m.uid < 0]
            + [e for s in cfg.states.values() for e in s.rset if e.uid < 0])


def run_checked(sim, cfg0, policy, budget, workload=None):
    """Run with an observer that holds the checks ``run`` tallies at every
    step to ``sim.check`` from scratch, and the indexed ``enabled_events``
    to a scan of every channel, and that finds no unit without a uid in any
    configuration the run hands it (``run`` stamps its copy of the start)."""
    def observe(cfg, rec):
        assert (rec.census, rec.legit, rec.violations) == sim.check(cfg), cfg.step - 1
        assert sim.enabled_events(cfg) == scan_enabled(sim, cfg), cfg.step - 1
        assert not untagged(cfg), cfg.step - 1

    trace = sim.run(cfg0, policy, budget, workload=workload, observer=observe)
    assert (trace.initial_census, trace.initial_legit,
            trace.initial_violations) == sim.check(cfg0)
    return trace


def refusing_settle(tally, pid, st, t, msg, placed, woken):
    """``Tally.settle`` forced to refuse: every send counted in, the
    delivered message out and the receiver counted again, so that no step
    is a pure move and every record is looked up by its own fields."""
    if msg is not None:
        tally.move(t, msg, None)
    for m, to in placed:
        tally.move(None, m, to)
    woken.add(pid)
    return False


def settle_kind(msg, placed, st):
    """What a ``Tally.settle`` call counted: a prio pass, a hop or other
    control message, a hold (a unit reserved or the priority token kept),
    an entry handing the priority token on, a section end, a release the
    pusher forces, a forward or a pass."""
    sent = [m.__class__ for m, _ in placed]
    cls = msg.__class__
    if msg is None:
        return "section end" if ResT in sent else "pass"
    if cls is Ctrl:
        hop = len(placed) == 1 and sent[0] is Ctrl and placed[0][0].c == msg.c
        return "hop" if hop else "control"
    if cls is PushT and ResT in sent:
        return "pusher release"
    if cls is ResT and any(e.uid == msg.uid for e in st.rset):
        return "entry handing Prio on" if PrioT in sent else "hold"
    if cls is PrioT and PrioT not in sent and st.prio is not None:
        return "hold"
    if cls is PrioT and placed and placed[0][0] is not msg:
        return "prio pass"
    return "forward"


def refused_settle_runs(monkeypatch, first_tree, span, round_robin, rate, budget):
    """Six runs with requests from canonical (even seeds) and arbitrary
    (odd seeds) starts on trees ``first_tree + seed`` of ``3 + seed % span``
    processes, each held to ``run_checked`` and to the run in which the
    tally refuses to settle (``refusing_settle``): every send counted in,
    the delivered message out, the receiver again, and the step's record
    looked up by its own fields.  Returns, for every ``Tally.settle`` call
    the checks read (a hop only when it is alone in its step, as the hop
    rule reads it), (its ``settle_kind``, whether it was counted without a
    recount: a pure move for a prio pass, its process not counted again
    for any other)."""
    settle, seen = monitor.Tally.settle, []

    def counting(self, pid, st, t, msg, placed, woken):
        alone = not woken
        pure = settle(self, pid, st, t, msg, placed, woken)
        kind = settle_kind(msg, placed, st)
        if kind != "hop" or alone:
            seen.append((kind, pure if kind == "prio pass" else pid not in woken))
        return pure

    for seed in range(6):
        topo = random_tree(first_tree + seed, 3 + seed % span)
        sim = canonical_sim(topo)
        cfg = sim.inject_arbitrary(seed) if seed % 2 else sim.initial_configuration()

        def args():
            return (RoundRobinPolicy() if round_robin else RandomPolicy(seed), budget,
                    RandomWorkload(topo.process_ids, 2, seed, rate=rate, max_duration=3))

        monkeypatch.setattr(monitor.Tally, "settle", counting)
        trace = run_checked(sim, cfg, *args())
        monkeypatch.setattr(monitor.Tally, "settle", refusing_settle)
        ref = sim.run(cfg, *args())
        monkeypatch.undo()
        assert list(trace.lines()) == list(ref.lines())
        assert trace.records == ref.records
    return seen


def canonical_sim(topo, ell=3, k=2):
    return Simulator(topo, SimParams(k=k, ell=ell, cmax=1,
                                     timeout=default_timeout(topo, ell, 1)))


@pytest.mark.pin
class TestTallyMatchesScratch:
    """``run`` counts each configuration's census, legitimacy and violations
    from what the step touched, and keeps an index of the non-empty
    channels; both must agree with counting everything afresh."""

    @pytest.mark.parametrize("seed", range(20))
    def test_arbitrary_start(self, seed):
        n, cmax, ell = 2 + seed % 11, seed % 4, 1 + seed % 4
        topo = random_tree(500 + seed, n)
        allowance = traversal_allowance(topo, ell, cmax)
        sim = Simulator(topo, SimParams(k=1 + seed % ell, ell=ell, cmax=cmax,
                                        timeout=3 * allowance))
        policy = RoundRobinPolicy() if seed % 2 else RandomPolicy(seed)
        run_checked(sim, sim.inject_arbitrary(seed), policy, 6 * allowance)

    @pytest.mark.parametrize("seed", range(6))
    def test_requests_with_root(self, seed):
        topo = random_tree(7000 + seed, 3 + seed % 5)
        sim = canonical_sim(topo, ell=1 + seed % 3, k=1)
        allowance = traversal_allowance(topo, sim.params.ell, 1)
        workload = RandomWorkload(topo.process_ids, 1, seed, rate=0.08,
                                  last_step=8 * allowance)
        policy = RoundRobinPolicy() if seed % 2 else RandomPolicy(seed)
        trace = run_checked(sim, sim.initial_configuration(), policy,
                            10 * allowance, workload)
        assert any(topo.root in rec.entries for rec in trace.records)

    @pytest.mark.parametrize("n, steps", [(40, 1200), (160, 2400)])
    def test_large_tree_across_a_wrap(self, n, steps):
        sim = canonical_sim(random_tree(n, n))
        trace = run_checked(sim, sim.initial_configuration(), RoundRobinPolicy(), steps)
        assert any(rec.traversal_end for rec in trace.records)

    def test_figures(self):
        sim = scenarios.deadlock_simulator(timeout=None)
        run_checked(sim, scenarios.deadlock_config(sim), RoundRobinPolicy(), 1500,
                    scenarios.deadlock_workload())
        sim = scenarios.livelock_simulator(timeout=None)
        run_checked(sim, scenarios.livelock_config(sim, with_priority=False),
                    ReplayPolicy(scenarios.livelock_replay(2)), 2 * scenarios.CYCLE,
                    scenarios.livelock_workload())
        run_checked(sim, scenarios.livelock_config(sim, with_priority=True),
                    RoundRobinPolicy(), 1500, scenarios.livelock_workload())

    def test_duplicated_unit(self):
        sim = canonical_sim(random_tree(3, 6))
        cfg = sim.initial_configuration()
        uid = next(m.uid for q in cfg.channels.values() for m in q if isinstance(m, ResT))
        cfg.channels[sim.channel_keys[3]].append(ResT(uid=uid))
        pid = sim.topo.process_ids[2]
        cfg.states[pid].state = REQ
        cfg.states[pid].need = 2
        cfg.states[pid].rset = [Reserved(0, uid)]
        trace = run_checked(sim, cfg, RandomPolicy(3), 400)
        assert any("duplicated" in v for rec in trace.records for v in rec.violations)

    def test_units_without_uid(self):
        # a hand-built start may hold units without a uid (-1), in channels
        # and RSets: with no identity, none is a duplicate of another for
        # ``sim.check``, and ``run`` stamps its copy of the start with
        # fresh uids, while a tagged unit held twice is
        sim = canonical_sim(random_tree(3, 6))
        cfg = sim.initial_configuration()
        q = cfg.channels[sim.channel_keys[sim.topo.ring.dest[sim.topo.root][0]]]
        q[1:3] = [ResT(), ResT()]
        pid = sim.topo.process_ids[2]
        cfg.states[pid].state, cfg.states[pid].need = REQ, 2
        cfg.states[pid].rset = [Reserved(0), Reserved(0)]
        assert sim.check(cfg)[2] == ()
        run_checked(sim, cfg, RandomPolicy(3), 300)
        tagged = q[3].uid
        cfg.channels[sim.channel_keys[3]].append(ResT(uid=tagged))
        (violation,) = sim.check(cfg)[2]
        assert violation.startswith(f"resource unit {tagged} duplicated ")
        run_checked(sim, cfg, RandomPolicy(3), 300)

    def test_run_stamps_a_hand_built_start(self):
        # units without a uid in channels and in an RSet held by a process
        # that is short of its need: ``run`` stamps the copy it takes, so no
        # configuration it hands the observer holds one (``run_checked``),
        # and the start itself keeps them
        sim = canonical_sim(random_tree(3, 6))
        cfg = sim.initial_configuration()
        q = cfg.channels[sim.channel_keys[sim.topo.ring.dest[sim.topo.root][0]]]
        q[1:3] = [ResT(), ResT()]
        pid = sim.topo.process_ids[2]
        cfg.states[pid].state, cfg.states[pid].need = REQ, 2
        cfg.states[pid].rset = [Reserved(0)]
        trace = run_checked(sim, cfg, RoundRobinPolicy(), 300)
        assert len(untagged(cfg)) == 3
        assert trace.final.next_uid >= cfg.next_uid + 3

    def test_pinned_sections_over_ell(self):
        # the only messages are a pusher and a unit; step 0 enters two
        # sections that never end, 3 > ell units in use, without counting a
        # token in or out, and later steps only pass tokens on: a step with
        # violations leaves no checks to reuse
        topo = random_tree(3, 6)
        sim = Simulator(topo, SimParams(k=2, ell=2, cmax=1, timeout=None))
        cfg = sim.initial_configuration()
        for q in cfg.channels.values():
            q.clear()
        a, b = topo.process_ids[2], topo.process_ids[3]
        for pid, rset in [(a, [Reserved(0), Reserved(0)]), (b, [Reserved(0)])]:
            st_ = cfg.states[pid]
            st_.state, st_.need, st_.rset = REQ, len(rset), rset
            cfg.app.armed_duration[pid] = float("inf")
        cfg.channels[sim.channel_keys[3]].append(PushT())
        cfg.channels[sim.channel_keys[1]].append(ResT())
        trace = run_checked(sim, cfg, RoundRobinPolicy(), 40)
        assert sorted(trace.records[0].entries) == sorted([a, b])
        assert all("3 > ell units in use" in rec.violations for rec in trace.records)

    def test_stale_second_controller(self):
        sim = canonical_sim(random_tree(4, 7))
        cfg = sim.initial_configuration()
        cfg.channels[sim.channel_keys[5]].append(Ctrl(3, False, 0, 0))
        run_checked(sim, cfg, RoundRobinPolicy(), 600)

    def test_parent_duplicate_jumps_the_controller(self):
        # a non-root that finished its subtree (succ 0, counter adopted)
        # takes a control message from its parent as valid, and forwards it
        # to the parent: past its whole subtree
        sim = canonical_sim(CHAIN)
        mid = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 40,
                      stop=lambda recs, cfg: cfg.states["a"].succ == 0
                      and cfg.states["a"].myc == cfg.states["r"].myc).final
        for q in mid.channels.values():
            for m in [m for m in q if isinstance(m, Ctrl)]:
                q.remove(m)
        mid.channels[("a", 0)].insert(0, Ctrl(mid.states["a"].myc, False, 0, 0))
        assert sim.check(mid)[0].ctrl_tokens == 1
        trace = run_checked(sim, mid, ReplayPolicy([CHAIN.ring.slot["a"][0]]), 1)
        assert next(trace.lines()).endswith("sends=[0:Ctrl{c=%d,r=0,pt=0,ppr=0}]"
                                            % mid.states["a"].myc)
        run_checked(sim, mid, RoundRobinPolicy(), 400)

    # CHAIN's ring: slot 0 (r, 0), the wrap channel; 1 (a, 0); 2 (b, 0); 3 (a, 1).
    # From the canonical start, slot 1 holds PrioT, three ResT, PushT, Ctrl.
    # Five forwards and the controller to slot 2, the priority token and a
    # unit round to the root, and both back to slot 1
    CTRL_AT_2 = [1] * 6 + [2, 2, 3, 3, 0, 0, 1]

    def test_shift_behind_the_controller(self, monkeypatch):
        # a forwards a unit from slot 1, which the controller has passed,
        # into slot 2, behind the controller: ``after[2]`` and ``behind``.
        # Only the running counts moved: one move, nobody counted again,
        # the kept checks returned with their verdict re-read.  The root's
        # forwards of the priority token and a unit off slot 0 into slot 1
        # (steps 10 and 11) pass the controller the other way
        sim = canonical_sim(CHAIN)
        trace, log = TestPureForward.logged_steps(monkeypatch, sim, sim.initial_configuration(),
                                                  self.CTRL_AT_2 + [1])
        assert trace.records[-1].body == "proc=a event=deliver msg=ResT ch=0 sends=[1:ResT]"
        assert all(rec.legit for rec in trace.records)
        reread = {"passes": 0, "counted": [], "kept": True, "reread": True}
        assert log[14] == {**reread, "moves": [(1, ResT, 2)]}
        assert log[12] == {**reread, "moves": [(0, ResT, 1)]}
        assert log[11] == {**reread, "passes": 1, "moves": [(0, PrioT, 1)]}

    def test_shift_of_a_control_message(self):
        # ``Tally.move`` counts a control message out and in: from slot 3
        # onto the root's wrap channel (slot 0), and off it into slot 1,
        # behind the tokens queued there
        sim = canonical_sim(CHAIN)
        cfg = sim.initial_configuration()
        keys = sim.channel_keys
        ctrl = cfg.channels[keys[1]].pop()
        cfg.channels[keys[3]].append(ctrl)
        tally = sim.tally(cfg)
        assert monitor.step_checks(tally, CHAIN.process_ids) == sim.check(cfg)
        for t, to in [(3, 0), (0, 1)]:
            assert cfg.channels[keys[t]].pop(0) is ctrl
            cfg.channels[keys[to]].append(ctrl)
            tally.move(t, ctrl, to)
            assert monitor.step_checks(tally, ()) == sim.check(cfg)
            fresh = sim.tally(cfg)
            monitor.step_checks(fresh, CHAIN.process_ids)
            assert (tally.counts, tally.tokens, tally.copies, tally.ctrls, tally.after,
                    tally.key, tally.behind) == (
                fresh.counts, fresh.tokens, fresh.copies, fresh.ctrls, fresh.after,
                fresh.key, fresh.behind)
        assert tally.ctrls == {1: [ctrl]}

    def test_shift_onto_the_wrap_channel(self):
        # the controller goes on to the root's wrap channel (slot 0, its
        # place 2(n-1) there); a forwards a unit from slot 3, which it has
        # passed, onto slot 0, which never counts as passed, behind it
        replay = self.CTRL_AT_2 + [1] + [2] * 4 + [3] * 4 + [2, 2, 3, 3]
        sim = canonical_sim(CHAIN)
        trace = run_checked(sim, sim.initial_configuration(), ReplayPolicy(replay), 40)
        lines = [rec.body for rec in trace.records]
        assert lines[21] == ("proc=a event=deliver msg=Ctrl{c=0,r=0,pt=0,ppr=0} ch=1 "
                             "sends=[0:Ctrl{c=0,r=0,pt=0,ppr=0}]")
        assert lines[-1] == "proc=a event=deliver msg=ResT ch=1 sends=[0:ResT]"
        assert all(rec.legit for rec in trace.records)

    @pytest.mark.parametrize("cls", [ResT, PrioT, PushT])
    def test_move_across_equals_out_then_in(self, cls):
        # a token that ``Tally.move`` passes from slot to slot is counted as
        # one taken out and one put in: with the controller valid on slot 2,
        # so that ``key`` and ``after`` are live, a token at the front of
        # every slot goes on to the next, off and onto the root's wrap
        # channel (slot 0) and into the controller's slot
        sim = canonical_sim(CHAIN)
        cfg = sim.run(sim.initial_configuration(), ReplayPolicy(self.CTRL_AT_2), 20).final
        keys = sim.channel_keys
        for key in keys:
            cfg.channels[key].insert(0, ResT(sim._take_uid(cfg)) if cls is ResT else cls())
        tally, twin = sim.tally(cfg), sim.tally(cfg)
        for tl in (tally, twin):
            assert monitor.step_checks(tl, CHAIN.process_ids) == sim.check(cfg)
        assert tally.key[1] == 2
        behind_controller = tally.after[2].copy()
        for t in range(len(keys)):
            to = (t + 1) % len(keys)
            m = cfg.channels[keys[t]].pop(0)
            assert m.__class__ is cls
            cfg.channels[keys[to]].append(m)
            tally.move(t, m, to)
            twin.move(t, m, None)
            twin.move(None, m, to)
            checks = monitor.step_checks(tally, ())
            assert checks == monitor.step_checks(twin, ()) == sim.check(cfg)
            assert (tally.counts, tally.tokens, tally.copies, tally.behind, tally.after) == (
                twin.counts, twin.tokens, twin.copies, twin.behind, twin.after)
        behind_controller[monitor._SPECIES[cls]] += 1
        assert tally.after[2] == behind_controller

    def test_moves_clear_the_kept_checks(self):
        # ``step_checks(tally, ())`` returns its last result while no input
        # of the check moved.  Each move below changes one, from the
        # legitimate start with the controller valid on slot 2 (slot 1
        # holds a unit it has passed, slot 2 two units and the pusher ahead
        # of it and the priority token behind it); a run's forwards only go
        # to the next slot, which keeps the sums, so these are hand moves
        sim = canonical_sim(CHAIN)
        keys = sim.channel_keys

        def ahead_to_behind(cfg, tally):
            m = cfg.channels[keys[2]].pop(0)
            cfg.channels[keys[1]].append(m)
            tally.move(2, m, 1)

        def into_the_controllers_slot(cfg, tally):
            kept = monitor.step_checks(tally, ())
            m = cfg.channels[keys[2]].pop(0)
            cfg.channels[keys[3]].append(m)
            tally.move(2, m, 3)  # neither behind the controller nor after it
            assert monitor.step_checks(tally, ()) is kept == sim.check(cfg)
            cfg.channels[keys[3]].pop(0)
            cfg.channels[keys[2]].append(m)
            tally.move(3, m, 2)

        def counted_in(cfg, tally):
            m = ResT(sim._take_uid(cfg))
            cfg.channels[keys[3]].append(m)
            tally.move(None, m, 3)

        def counted_out(cfg, tally):
            tally.move(1, cfg.channels[keys[1]].pop(0), None)

        def control_message(cfg, tally):
            (ctrl,) = [m for m in cfg.channels[keys[2]] if isinstance(m, Ctrl)]
            cfg.channels[keys[2]].remove(ctrl)
            cfg.channels[keys[3]].append(ctrl)
            tally.move(2, ctrl, 3)

        for edit in (ahead_to_behind, into_the_controllers_slot, counted_in,
                     counted_out, control_message):
            cfg = sim.run(sim.initial_configuration(), ReplayPolicy(self.CTRL_AT_2), 20).final
            tally = sim.tally(cfg)
            first = monitor.step_checks(tally, CHAIN.process_ids)
            assert first == sim.check(cfg) and first[1]
            edit(cfg, tally)
            checks = monitor.step_checks(tally, ())
            assert checks == sim.check(cfg) != first, edit.__name__

    def test_rset_edits_recount_the_changed_tail(self):
        # a tally counts a changed RSet again whole; no run edits an RSet in
        # the middle (a run only appends an entry or clears it), so edit it
        # by hand between checks on one tally and hold it to a fresh count
        sim = canonical_sim(random_tree(3, 6))
        cfg = sim.initial_configuration()
        pid = next(p for p in sim.topo.process_ids if sim.topo.degree(p) > 1)
        free = [m.uid for q in cfg.channels.values() for m in q if isinstance(m, ResT)]
        st_ = cfg.states[pid]
        st_.state, st_.need = REQ, 2
        st_.rset = [Reserved(0, sim._take_uid(cfg)), Reserved(1, sim._take_uid(cfg))]
        tally = sim.tally(cfg)

        def assert_matches_scratch(procs):
            checks = monitor.step_checks(tally, procs)
            assert checks == sim.check(cfg)
            fresh = sim.tally(cfg)
            monitor.step_checks(fresh, sim.topo.process_ids)
            assert (tally.counts, tally.tokens, tally.copies) == (
                fresh.counts, fresh.tokens, fresh.copies)
            return any("duplicated" in v for v in checks[2])

        assert not assert_matches_scratch(sim.topo.process_ids)
        edits = [
            # same channel, a unit that is also free in a channel
            lambda r: r.__setitem__(0, Reserved(r[0].channel, free[0])),
            lambda r: r.reverse(),
            lambda r: r.pop(),
        ]
        duplicated = []
        for edit in edits:
            edit(st_.rset)
            duplicated.append(assert_matches_scratch((pid,)))
        assert duplicated == [True, True, False]
        assert [e.channel for e in st_.rset] == [1]


@pytest.mark.pin
class TestPureForward:
    """A delivery gives its receiver a local-action pass only when the
    handler changed the size of its RSet or its Prio, the only guard inputs
    a handler writes: otherwise the guards are as false as the receiver's
    last pass left them.  A pure forward, a delivery whose handler's only
    send is the delivered token itself, at a non-root or at the root off any
    channel but its wrap channel, changed nothing at its receiver:
    ``Tally.settle`` pairs the token with the slot it was delivered from,
    moves it in one ``Tally.move``, and finds the receiver's part as it was,
    so it is not counted again; the monitor reuses its controller scan
    until a control message moves or a process it names receives on a slot
    that holds one.  The root's forwards off its wrap channel change SToken
    or SPush, which only the running counts read: the root is not counted
    again while its part has no violation and those counters stay inside
    their domains, and the step re-reads that clause.  A controller hop
    changes its receiver's Succ or counter, so it is not a pure forward.
    A prio pass, a priority token taken and handed straight on by its
    receiver's pass, is a pure move too: the token the pass sends is paired
    with the delivered one, its receiver ends as it began and is not
    counted again (the root on its wrap channel, where SPrio counts the
    token, as on a forward), and a requester short of its need, which keeps
    the token, holds it where it was counted.  A lone pure forward or prio
    pass, with nothing else in its step, is looked up by its slot, its
    token's class, whether it was passed and its checks, and renders its
    lines only when that key is new."""

    @staticmethod
    def logged_run(monkeypatch, sim, force_passes, budget=1500, rate=0.05):
        """A round-robin run from the canonical start, with requests at
        ``rate``, and the log of its deliveries (receiver, message, RSet size
        or Prio changed?), local-action passes (receiver, acted?) and step
        ends.  A step end after a delivery with no pass checks that the pass
        would have been a no-op, on a copy of the receiver.  With
        ``force_passes`` a handler that left the RSet size and Prio as they
        were is followed, inside ``dispatch``, by the pass the step skips,
        its sends added to the handler's: every delivery then has a pass."""
        log = []

        def logged_dispatch(st, q, msg, p):
            held, prio = len(st.rset), st.prio
            out = dispatch(st, q, msg, p)
            moved = (len(st.rset), st.prio) != (held, prio)
            log.append(("deliver", st, msg.__class__, moved))
            if force_passes and not moved:
                extra = local_actions(st, p, False)  # in no section: none is running
                out = HandlerOutput([*out.sends, *extra.sends], extra.entered_cs,
                                    out.restart_timer, out.traversal_end)
            return out

        def logged_local_actions(st, p, cs_done):
            old = st.state
            out = local_actions(st, p, cs_done)
            log.append(("pass", st, bool(out.sends or out.entered_cs or st.state != old)))
            return out

        def observe(cfg, rec):
            last = log[-1]
            if last[0] == "deliver" and not last[3]:
                pid = next(pid for pid, s in cfg.states.items() if s is last[1])
                skipped = local_actions(cfg.states[pid].copy(), sim.pp[pid],
                                        cfg.app.release_cs(pid))
                assert skipped is _NO_ACTIONS, cfg.step - 1
            log.append(("end",))

        monkeypatch.setattr(simnet, "dispatch", logged_dispatch)
        monkeypatch.setattr(simnet, "local_actions", logged_local_actions)
        topo = sim.topo
        workload = RandomWorkload(topo.process_ids, 2, 0, rate=rate, max_duration=4)
        trace = sim.run(sim.initial_configuration(), RoundRobinPolicy(), budget, workload,
                        observer=observe)
        monkeypatch.undo()
        return trace, log

    def test_no_pass_after_a_pure_forward(self, monkeypatch):
        sim = canonical_sim(random_tree(10, 10))
        trace, log = self.logged_run(monkeypatch, sim, force_passes=False)
        ref_trace, _ = self.logged_run(monkeypatch, sim, force_passes=True)
        # a pass follows a delivery exactly when the handler changed the
        # receiver's RSet size or Prio (a skipped pass would have been a
        # no-op: ``logged_run`` checks it at each step end)
        for ev, nxt in zip(log, log[1:]):
            if ev[0] == "deliver":
                assert nxt[:2] == ("pass", ev[1]) if ev[3] else nxt == ("end",)
        # and the passes the steps skip change nothing in the run
        assert list(trace.lines()) == list(ref_trace.lines())
        assert trace.records == ref_trace.records
        skipped = {(ev[2], ev[1] is trace.final.states[sim.topo.root])
                   for ev in log if ev[0] == "deliver" and not ev[3]}
        assert {(Ctrl, False), (Ctrl, True), (ResT, True), (PushT, True)} <= skipped
        assert any(ev[0] == "pass" and ev[2] for ev in log)

    @pytest.mark.parametrize("n", [4, 10])
    def test_no_useless_pass_on_a_legitimate_run(self, monkeypatch, n):
        # with no requests only a held priority token ever needs a pass, and
        # that pass sends the token on.  The first step passes over every
        # process, none of which holds anything in the canonical start, and
        # then delivers the priority token: those n passes are the run's only
        # no-ops
        sim = canonical_sim(random_tree(n, n))
        trace, log = self.logged_run(monkeypatch, sim, force_passes=False, budget=600,
                                     rate=0.0)
        assert any(rec.traversal_end for rec in trace.records)
        first = log.index(("end",))
        assert [ev[2] for ev in log[:first] if ev[0] == "pass"] == [False] * n + [True]
        later = [ev[2] for ev in log[first:] if ev[0] == "pass"]
        assert all(later)
        assert len(later) == sum(ev[:1] + ev[2:] == ("deliver", PrioT, True)
                                 for ev in log[first:]) > 0

    def test_root_forward_off_its_wrap_channel_changes_its_state(self, monkeypatch):
        # SToken above ell+1 is outside its domain; the root's forward of a
        # unit off its wrap channel (slot 0) caps it at ell+1, which only
        # counting the root again after that delivery can see (after the
        # first step, which counts every process).  The root's part holds
        # the violation, so the tally counts the root again
        sim = canonical_sim(CHAIN)
        cfg = sim.initial_configuration()
        cfg.states["r"].stoken = sim.params.ell + 2
        cfg.channels[("r", 0)].append(cfg.channels[("a", 0)].pop(1))
        trace, log = self.logged_steps(monkeypatch, sim, cfg, [1, 0])
        assert log[2] == {"passes": 0, "moves": [(0, ResT, 1)], "counted": ["r"],
                          "kept": False}
        assert trace.initial_violations == ("r bounded variable outside domain",)
        assert trace.records[0].violations == trace.initial_violations
        assert trace.records[1].body == "proc=r event=deliver msg=ResT ch=0 sends=[0:ResT]"
        assert trace.records[1].violations == ()
        assert trace.final.states["r"].stoken == sim.params.ell + 1

    def test_root_forward_off_a_non_wrap_channel(self, monkeypatch):
        # STAR's ring: slot 0 (r, 1), the root's wrap channel; 1 (a, 0);
        # 2 (r, 0); 3 (b, 0).  The root takes the priority token, the units,
        # the pusher and the controller from a (slot 2) and sends them on to
        # b; the units and the pusher it only passes on, off channel 0.  Then
        # b sends everything back to it on its wrap channel
        sim = canonical_sim(STAR)
        tallies, counted, steps = [], [], []
        make = sim.tally
        monkeypatch.setattr(sim, "tally", lambda c: tallies.append(make(c)) or tallies[-1])
        process = monitor.Tally.process
        monkeypatch.setattr(monitor.Tally, "process",
                            lambda self, pid, st: counted.append(pid) or process(self, pid, st))

        def observe(cfg, rec):
            steps.append((rec.body, "r" in counted))
            fresh = make(cfg)
            checks = monitor.step_checks(fresh, STAR.process_ids)
            assert (rec.census, rec.legit, rec.violations) == checks
            assert (tallies[0].counts, tallies[0].tokens, tallies[0].copies) == (
                fresh.counts, fresh.tokens, fresh.copies)
            counted.clear()

        replay = [1, 2] * 6 + [3] * 6 + [0] * 6
        trace = sim.run(sim.initial_configuration(), ReplayPolicy(replay), 24, observer=observe)
        assert len(tallies) == 1
        assert all(rec.legit for rec in trace.records)
        # the root is counted again after no forward: off its wrap channel
        # the step re-reads the running counts, which alone read SToken and
        # SPush
        forwards = {(body, root) for body, root in steps
                    if body.startswith("proc=r") and body.endswith(("ResT]", "PushT]"))}
        assert forwards == {(f"proc=r event=deliver msg={m} ch={ch} sends=[{1 - ch}:{m}]", False)
                            for m in ("ResT", "PushT") for ch in (0, 1)}

    def test_forward_of_a_unit_without_uid(self, monkeypatch):
        # a hand-built start's units without a uid get one as ``run`` takes
        # its copy of the start, before its tally counts it: as a passes
        # them on, the tally shifts them over and matches a fresh count
        sim = canonical_sim(CHAIN)
        cfg = sim.initial_configuration()
        cfg.channels[("a", 0)][1:4] = [ResT(), ResT(), ResT()]
        tallies = []
        make = sim.tally
        monkeypatch.setattr(sim, "tally", lambda c: tallies.append(make(c)) or tallies[-1])

        def observe(cfg, rec):
            fresh = make(cfg)
            monitor.step_checks(fresh, CHAIN.process_ids)
            assert (tallies[0].counts, tallies[0].tokens, tallies[0].copies) == (
                fresh.counts, fresh.tokens, fresh.copies)

        trace = sim.run(cfg, ReplayPolicy([1] * 4), 4, observer=observe)
        assert len(tallies) == 1
        assert trace.initial_violations == ()
        assert [rec.body for rec in trace.records[1:]] == [
            "proc=a event=deliver msg=ResT ch=0 sends=[1:ResT]"] * 3
        assert trace.records[-1].violations == ()

    def test_hand_edit_of_a_controller_receiver(self):
        # the controller on a's channel 1 (slot 3), valid as it returns from
        # a's succ with a's counter; edits of a's succ and myc reach the
        # verdict once a is named, and naming b, which receives on no slot
        # holding a control message, reuses the scan
        sim = canonical_sim(CHAIN)
        replay = TestTallyMatchesScratch.CTRL_AT_2 + [1] + [2] * 4
        cfg = sim.run(sim.initial_configuration(), ReplayPolicy(replay), 20).final
        assert [m for m in cfg.channels[("a", 1)] if isinstance(m, Ctrl)]
        tally = sim.tally(cfg)
        assert monitor.step_checks(tally, CHAIN.process_ids) == sim.check(cfg)
        assert sim.check(cfg)[1]
        scan = tally.scan
        assert monitor.step_checks(tally, ("b",)) == sim.check(cfg)
        assert tally.scan is scan
        a = cfg.states["a"]
        for succ, myc, valid in [(0, 0, False), (1, 5, False), (1, 0, True)]:
            a.succ, a.myc = succ, myc
            checks = monitor.step_checks(tally, ("a",))
            assert checks == sim.check(cfg)
            assert (checks[0].ctrl_tokens, checks[1]) == (valid, valid)

    # -- a lone pure forward: its record by slot, class and checks

    @staticmethod
    def generic_steps(monkeypatch):
        """Make every step take the generic path: ``Tally.settle`` refuses
        (``refusing_settle``), so no step is a pure move, and each looks its
        record up by the record's own fields, never by slot and class."""
        monkeypatch.setattr(monitor.Tally, "settle", refusing_settle)

    @staticmethod
    def lone_pure_forward(sim, rec):
        """Whether ``rec`` is a step that was only a pure forward."""
        if "\n" in rec.body or rec.transitions or " event=deliver " not in rec.body:
            return False
        pid, _, msg, ch, sends = (f.split("=", 1)[1] for f in rec.body.split(" "))
        root_wrap = pid == sim.topo.root and int(ch) == sim.topo.degree(pid) - 1
        return msg in ("ResT", "PushT", "PrioT") and sends.endswith(f":{msg}]") and not root_wrap

    def test_reused_records_equal_full_lookups(self, monkeypatch):
        # arbitrary starts with a unit duplicated and a stale controller:
        # every record equals the checks counted from scratch
        # (``run_checked``), and the run equals one in which every step
        # takes the generic path, so that no step reuses a record by slot
        # and class.
        # Among the pure forwards, some repeat at a slot after the census,
        # the legitimacy verdict or the violations changed
        changed = set()
        for seed in range(8):
            n, cmax, ell = 3 + seed % 6, 1 + seed % 3, 2 + seed % 3
            topo = random_tree(900 + seed, n)
            allowance = traversal_allowance(topo, ell, cmax)
            sim = Simulator(topo, SimParams(k=1 + seed % 2, ell=ell, cmax=cmax,
                                            timeout=3 * allowance))
            cfg = sim.inject_arbitrary(seed)
            rng = random.Random(seed)
            keys = sim.channel_keys
            for unit in [m for q in cfg.channels.values() for m in q if isinstance(m, ResT)][:1]:
                cfg.channels[keys[rng.randrange(len(keys))]].append(ResT(uid=unit.uid))
            cfg.channels[keys[rng.randrange(len(keys))]].append(
                Ctrl(rng.randrange(sim.modulus), False, 0, 0))
            policy = RoundRobinPolicy if seed % 2 else lambda: RandomPolicy(seed)
            trace = run_checked(sim, cfg, policy(), 6 * allowance)
            self.generic_steps(monkeypatch)
            ref = sim.run(cfg, policy(), 6 * allowance)
            monkeypatch.undo()
            assert list(trace.lines()) == list(ref.lines())
            assert trace.records == ref.records
            last = {}
            for rec in trace.records:
                if self.lone_pure_forward(sim, rec):
                    was = last.setdefault(rec.body, rec)
                    changed.update(name for name in ("census", "legit", "violations")
                                   if getattr(was, name) != getattr(rec, name))
                    last[rec.body] = rec
        assert changed == {"census", "legit", "violations"}

    def test_legitimacy_changes_under_the_same_census(self):
        # the leaf b starts with the controller's counter though the
        # controller has not passed it: the canonical CHAIN start is then
        # not legitimate, until the controller passes b.  No count changes,
        # so every step's census is one object, and the units a forwards
        # before and after must not share a record
        sim = canonical_sim(CHAIN)
        cfg = sim.initial_configuration()
        cfg.states["b"].myc = 0
        trace = run_checked(sim, cfg, RoundRobinPolicy(), 60)
        assert len({id(rec.census) for rec in trace.records}) == 1
        forwards = [rec for rec in trace.records
                    if rec.body == "proc=a event=deliver msg=ResT ch=0 sends=[1:ResT]"]
        assert [rec.legit for rec in forwards[:3]] == [False] * 3
        assert forwards[-1].legit and stabilization_time(trace) == 22

    def test_each_class_renders_its_own_line(self, monkeypatch):
        # on a legitimate run with no requests the units and the pusher pass
        # every process but the root's wrap channel, with the same checks
        # each time: the run equals one in which every step takes the
        # generic path.  (Only a second priority token is ever passed on by
        # a handler)
        sim = canonical_sim(random_tree(10, 10))
        trace = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 1500)
        self.generic_steps(monkeypatch)
        ref = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 1500)
        assert list(trace.lines()) == list(ref.lines())
        assert trace.records == ref.records
        lone = [rec.body for rec in trace.records if self.lone_pure_forward(sim, rec)]
        assert {body.split(" ")[2] for body in lone} == {"msg=ResT", "msg=PushT"}
        assert len(lone) > len(set(lone))

    def test_state_change_on_a_forward_is_recorded(self, monkeypatch):
        # a handler patched to take an idle process into its critical
        # section as it passes a unit on: CHAIN's first delivery is the
        # priority token, which a keeps and passes on, its second a unit
        # that a forwards.  The step records Out->In, and check_safety
        # rejects it
        forced = []

        def forcing_dispatch(st, q, msg, p):
            out = dispatch(st, q, msg, p)
            if not forced and msg.__class__ is ResT and st.state == OUT:
                assert out.sends == [(forward_channel(q, p.delta), msg)]
                st.state = IN
                forced.append(st)
            return out

        monkeypatch.setattr(simnet, "dispatch", forcing_dispatch)
        sim = canonical_sim(CHAIN)
        trace = run_checked(sim, sim.initial_configuration(), ReplayPolicy([1] * 6), 6)
        assert trace.records[1].transitions == (("a", OUT, IN),)
        assert trace.records[1].body == "proc=a event=deliver msg=ResT ch=0 sends=[1:ResT]"
        verdict = check_safety(trace)
        assert f"a: forbidden transition {OUT}->{IN} at step 1" in verdict.post_stabilization

    def test_untagged_unit_is_stamped_as_it_is_passed_on(self):
        # ``run`` stamps its copy of the start in slot order, so the units
        # a passes on carry the next uids in their order
        sim = canonical_sim(CHAIN)
        cfg = sim.initial_configuration()
        cfg.channels[("a", 0)][1:4] = [ResT(), ResT(), ResT()]
        trace = run_checked(sim, cfg, ReplayPolicy([1] * 4), 4)
        assert [rec.body for rec in trace.records[1:]] == [
            "proc=a event=deliver msg=ResT ch=0 sends=[1:ResT]"] * 3
        units = [m for m in trace.final.channels[("b", 0)] if isinstance(m, ResT)]
        assert [m.uid for m in units] == [cfg.next_uid, cfg.next_uid + 1, cfg.next_uid + 2]

    def test_controller_forwarded_as_itself_renders_once(self, monkeypatch):
        # a delivered controller is rendered for its ``msg=``; one sent on
        # as itself reuses that text, so only a newly built one is rendered
        # again, for its send.  (The equality holds as long as every
        # delivered controller's line is rendered: a step that reused a
        # record without rendering its line would break it)
        sim = canonical_sim(random_tree(10, 10))
        cfg = sim.initial_configuration()
        rendered, built = [], []
        render, init = Ctrl.__str__, Ctrl.__init__
        monkeypatch.setattr(Ctrl, "__str__", lambda m: rendered.append(m) or render(m))
        monkeypatch.setattr(Ctrl, "__init__",
                            lambda m, *a, **kw: built.append(m) or init(m, *a, **kw))
        trace = sim.run(cfg, RoundRobinPolicy(), 1500)
        monkeypatch.undo()
        delivered = sum(" msg=Ctrl{" in line for line in trace.lines())
        assert 0 < len(built) < delivered
        assert len(rendered) == delivered + len(built)

    # -- a priority token taken and handed on in one step: one move

    @staticmethod
    def logged_steps(monkeypatch, sim, cfg, replay, workload=None):
        """``run_checked`` on ``replay`` from ``cfg``, and for the start and
        each step, the local-action passes it ran (``simnet``'s pass, a
        patched one too) and what the run's own tally saw: its moves as
        (from, class, to), the processes it counted again, whether
        ``step_checks`` returned the checks object it kept from the last
        step, and, only for a step after which it re-read their verdict
        (``Tally.stale``), ``"reread": True``."""
        make, move, process, checks, actions = (sim.tally, monitor.Tally.move,
                                                monitor.Tally.process, monitor.step_checks,
                                                simnet.local_actions)
        tallies, log = [], [{"passes": 0, "moves": [], "counted": []}]
        mine = lambda tally: tallies and tally is tallies[0]  # noqa: E731

        def logged_move(self, frm, m, to):
            if mine(self):
                log[-1]["moves"].append((frm, m.__class__, to))
            move(self, frm, m, to)

        def logged_process(self, pid, st):
            if mine(self):
                log[-1]["counted"].append(pid)
            process(self, pid, st)

        def logged_checks(tally, procs):
            kept, stale = tally.last, tally.stale
            result = checks(tally, procs)
            if mine(tally):
                log[-1]["kept"] = result is kept
                if stale and kept is not None and not procs:
                    log[-1]["reread"] = True
                log.append({"passes": 0, "moves": [], "counted": []})
            return result

        def logged_local_actions(st, p, cs_done):
            log[-1]["passes"] += 1
            return actions(st, p, cs_done)

        monkeypatch.setattr(sim, "tally", lambda c: tallies.append(make(c)) or tallies[-1])
        monkeypatch.setattr(monitor.Tally, "move", logged_move)
        monkeypatch.setattr(monitor.Tally, "process", logged_process)
        monkeypatch.setattr(monitor, "step_checks", logged_checks)
        monkeypatch.setattr(simnet, "local_actions", logged_local_actions)
        trace = run_checked(sim, cfg, ReplayPolicy(replay), len(replay), workload)
        monkeypatch.undo()
        return trace, log[:-1]

    # CHAIN's ring: slot 0 (r, 0), the wrap channel; 1 (a, 0); 2 (b, 0);
    # 3 (a, 1).  The canonical start's first token is the priority token, at
    # slot 1; a takes it and hands it on to b (slot 2), b to a's channel 1
    # (slot 3), a to the root's wrap channel (slot 0), and the root to a
    PRIO_ROUND = [1, 2, 3, 0]

    def test_prio_pass_at_a_non_root_is_one_move(self, monkeypatch):
        sim = canonical_sim(CHAIN)
        trace, log = self.logged_steps(monkeypatch, sim, sim.initial_configuration(),
                                       self.PRIO_ROUND)
        assert [rec.body for rec in trace.records[1:3]] == [
            "proc=b event=deliver msg=PrioT ch=0 sends=[]\n"
            "proc=b event=local msg=actions ch=- sends=[0:PrioT]",
            "proc=a event=deliver msg=PrioT ch=1 sends=[]\n"
            "proc=a event=local msg=actions ch=- sends=[0:PrioT]"]
        # log[0] is the start's check, log[1] the first step's, which
        # counts every process
        assert log[2:4] == [
            {"passes": 1, "moves": [(2, PrioT, 3)], "counted": [], "kept": True},
            {"passes": 1, "moves": [(3, PrioT, 0)], "counted": [], "kept": True}]

    def test_root_prio_pass_on_its_wrap_channel_rereads_the_counts(self, monkeypatch):
        # the root's pass adds the token it sends on off its wrap channel to
        # SPrio, which only the running-count clause reads: the token moves
        # behind the controller at slot 1, the root is not counted again,
        # and the step re-reads that clause, which still holds
        sim = canonical_sim(CHAIN)
        trace, log = self.logged_steps(monkeypatch, sim, sim.initial_configuration(),
                                       self.PRIO_ROUND)
        assert trace.records[3].body == (
            "proc=r event=deliver msg=PrioT ch=0 sends=[]\n"
            "proc=r event=local msg=actions ch=- sends=[0:PrioT]")
        assert log[4] == {"passes": 1, "moves": [(0, PrioT, 1)], "counted": [],
                          "kept": True, "reread": True}
        assert trace.final.states["r"].sprio == 1

    def test_requester_short_of_its_need_keeps_the_prio_token(self, monkeypatch):
        # a requests two units and holds none: it keeps the token, which is
        # held where it was counted (``Tally.settle``), so nothing moves, a is
        # not counted again and the last checks stand; its one pass, run as
        # it took the token, is not run again
        sim = canonical_sim(CHAIN)
        cfg = sim.initial_configuration()
        cfg.states["a"].state, cfg.states["a"].need = REQ, 2
        trace, log = self.logged_steps(monkeypatch, sim, cfg, [None, 1])
        assert trace.records[1].body == "proc=a event=deliver msg=PrioT ch=0 sends=[]"
        assert log[2] == {"passes": 1, "moves": [], "counted": [], "kept": True}
        assert trace.final.states["a"].prio == 0

    def test_prio_pass_in_a_step_with_a_request_line(self, monkeypatch):
        # the root requests as b takes the token and hands it on: the step
        # renders all its lines, and the token still moves once.  The
        # root's pass does nothing, so the root is not counted again
        sim = canonical_sim(CHAIN)
        workload = Workload([WorkloadEvent(1, "r", 1, 2)], 2)
        trace, log = self.logged_steps(monkeypatch, sim, sim.initial_configuration(),
                                       [1, 2], workload)
        rec = trace.records[1]
        assert rec.body == ("proc=r event=local msg=request{need=1} ch=- sends=[]\n"
                            "proc=b event=deliver msg=PrioT ch=0 sends=[]\n"
                            "proc=b event=local msg=actions ch=- sends=[0:PrioT]")
        assert (rec.requests, rec.transitions) == ((("r", 1),), (("r", OUT, REQ),))
        assert log[2] == {"passes": 2, "moves": [(2, PrioT, 3)], "counted": [], "kept": True}

    def test_prio_pass_and_forward_of_the_prio_token_differ(self):
        # three priority tokens queue at b: b hands the first straight on,
        # then requests and keeps the second, and its handler sends the
        # third on as itself.  Both lone steps have b's slot, the class and
        # the checks in common, but not their lines
        sim = canonical_sim(CHAIN)
        cfg = sim.initial_configuration()
        cfg.channels[("b", 0)] = [PrioT(), PrioT(), PrioT()]
        trace = run_checked(sim, cfg, ReplayPolicy([None, 2, 2, 2]), 4,
                            Workload([WorkloadEvent(2, "b", 2, 1)], 2))
        _, first, kept, forward = trace.records
        assert (first.census, first.legit, first.violations) == (
            forward.census, forward.legit, forward.violations)
        assert first.body == ("proc=b event=deliver msg=PrioT ch=0 sends=[]\n"
                              "proc=b event=local msg=actions ch=- sends=[0:PrioT]")
        assert kept.body.endswith("proc=b event=deliver msg=PrioT ch=0 sends=[]")
        assert forward.body == "proc=b event=deliver msg=PrioT ch=0 sends=[0:PrioT]"

    def test_prio_passes_equal_generic_steps(self, monkeypatch):
        # runs with requests from arbitrary and canonical starts: every step
        # equals the one in which the tally refuses to settle, so that a
        # passed priority token is counted out and in, its receiver counted
        # again and the step's record looked up by its own fields
        seen = refused_settle_runs(monkeypatch, 700, 5, False, 0.05, 800)
        assert seen.count(("prio pass", True)) > 100


@pytest.mark.pin
class TestControllerHop:
    """A controller hop, a delivered control message whose handler sends one
    control message with the same counter (the message itself, or a copy
    with what its receiver holds from the channel picked up), is paired by
    ``Tally.settle`` with the one delivered, and counted by its hop rule
    when the step's application phase counts no process again (a request
    whose pass does nothing counts none) and the hop is not a root wrap:
    one move, and when the last checks were legitimate, its receiver is not
    counted again and the checks are read from the new place and the states
    of the old and the new receiver.  Any other hop falls back to
    ``step_checks``, which counts its receiver again.  A hop's record is
    looked up by the record's own fields, as that of any step other than a
    lone pure forward or prio pass."""

    logged_steps = staticmethod(TestPureForward.logged_steps)

    # CHAIN's ring: slot 0 (r, 0), the wrap channel; 1 (a, 0); 2 (b, 0);
    # 3 (a, 1).  Round robin from the canonical start passes the priority
    # token, the units and the pusher round the ring first; then a adopts
    # the controller (step 20), b adopts it (21), a sends it back to the
    # root (22), and the root wraps (23)
    ROUND = [1, 2, 3, 0] * 6
    CTRL = "Ctrl{c=0,r=0,pt=0,ppr=0}"
    HOPS = [f"proc=a event=deliver msg={CTRL} ch=0 sends=[1:{CTRL}]",
            f"proc=b event=deliver msg={CTRL} ch=0 sends=[0:{CTRL}]",
            f"proc=a event=deliver msg={CTRL} ch=1 sends=[0:{CTRL}]"]

    def test_hop_is_one_move(self, monkeypatch):
        sim = canonical_sim(CHAIN)
        trace, log = self.logged_steps(monkeypatch, sim, sim.initial_configuration(),
                                       self.ROUND)
        assert [rec.body for rec in trace.records[20:23]] == self.HOPS
        # log[i + 1] is step i; ``step_checks`` returns the checks the hop
        # rule kept
        assert log[21:24] == [
            {"passes": 0, "moves": [(1, Ctrl, 2)], "counted": [], "kept": True},
            {"passes": 0, "moves": [(2, Ctrl, 3)], "counted": [], "kept": True},
            {"passes": 0, "moves": [(3, Ctrl, 0)], "counted": [], "kept": True}]
        assert all(rec.legit for rec in trace.records)
        # the root's wrap takes the general path: the new counter's place
        # does not follow from the last, and every process is counted again
        assert trace.records[23].body == (f"proc=r event=deliver msg={self.CTRL} ch=0 "
                                          "sends=[0:Ctrl{c=1,r=0,pt=0,ppr=0}]")
        assert log[24] == {"passes": 0, "moves": [(0, Ctrl, None), (None, Ctrl, 1)],
                           "counted": list(CHAIN.process_ids), "kept": False}

    def test_leaf_parent_duplicate(self, monkeypatch):
        # the leaf b starts with the controller's counter, so the controller
        # from its parent is a parent duplicate, valid at a leaf, which b
        # sends on one place; b is off the canonical traversal state until
        # it has passed.  The last checks were not legitimate: b is counted
        # again, and its off flag flips
        sim = canonical_sim(CHAIN)
        cfg = sim.initial_configuration()
        cfg.states["b"].myc = 0
        trace, log = self.logged_steps(monkeypatch, sim, cfg, self.ROUND)
        assert trace.records[21].body == self.HOPS[1]
        assert log[22]["moves"] == [(2, Ctrl, 3)] and log[22]["counted"] == ["b"]
        assert [rec.legit for rec in trace.records[20:22]] == [False, True]

    def test_capped_count_sent_on_as_itself(self, monkeypatch):
        # the controller, at the front of a's channel, carries pt = ell+1,
        # which the unit a holds from that channel cannot raise: a's handler
        # sends it on as itself.  No legitimate configuration carries that
        # count, so a is counted again and the checks stay not legitimate
        sim = canonical_sim(CHAIN)
        cfg = sim.initial_configuration()
        q = cfg.channels[("a", 0)]
        unit = q.pop(1)
        q.pop()
        q.insert(0, Ctrl(0, False, sim.params.ell + 1, 0))
        a = cfg.states["a"]
        a.state, a.need, a.rset = REQ, 2, [Reserved(0, unit.uid)]
        trace, log = self.logged_steps(monkeypatch, sim, cfg, [None, 1])
        ctrl = "Ctrl{c=0,r=0,pt=4,ppr=0}"
        assert trace.records[1].body == f"proc=a event=deliver msg={ctrl} ch=0 sends=[1:{ctrl}]"
        assert log[2] == {"passes": 0, "moves": [(1, Ctrl, 2)], "counted": ["a"],
                          "kept": False}
        assert not trace.initial_legit and not trace.records[1].legit

    def test_hop_into_a_receiver_that_finds_it_invalid(self):
        # a transient fault moves the root's counter on while a sends the
        # controller back to it: the last checks were legitimate, but the
        # root no longer takes the controller as valid, which only its state
        # tells.  a is counted again, and no controller is valid
        sim = canonical_sim(CHAIN)
        counted = []

        def observe(cfg, rec):
            assert (rec.census, rec.legit, rec.violations) == sim.check(cfg), cfg.step - 1
            if cfg.step == 22:
                cfg.states["r"].myc = 1

        process = monitor.Tally.process
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(monitor.Tally, "process",
                       lambda self, pid, st: counted.append(pid) or process(self, pid, st))
            trace = sim.run(sim.initial_configuration(), ReplayPolicy(self.ROUND), 24,
                            observer=observe)
        hop = trace.records[22]
        assert hop.body == self.HOPS[2] and trace.records[21].legit
        assert (hop.census.ctrl_tokens, hop.legit) == (0, False)
        assert "a" in counted

    def test_hop_in_a_step_with_a_request_line(self, monkeypatch):
        # b requests as a adopts the controller: the step renders both
        # lines, and as b's pass does nothing, the hop goes to the hop rule,
        # which counts neither process again
        sim = canonical_sim(CHAIN)
        workload = Workload([WorkloadEvent(20, "b", 1, 2)], 2)
        trace, log = self.logged_steps(monkeypatch, sim, sim.initial_configuration(),
                                       self.ROUND, workload)
        assert trace.records[20].body == ("proc=b event=local msg=request{need=1} ch=- sends=[]\n"
                                          + self.HOPS[0])
        assert log[21] == {"passes": 1, "moves": [(1, Ctrl, 2)], "counted": [], "kept": True}
        # b adopts the controller the next step, with nothing else in it
        assert log[22] == {"passes": 0, "moves": [(2, Ctrl, 3)], "counted": [], "kept": True}

    def test_root_pickup_hop(self, monkeypatch):
        # STAR's ring: slot 0 (r, 1), the root's wrap channel; 1 (a, 0);
        # 2 (r, 0); 3 (b, 0).  The root, in its critical section with two
        # units from channel 0, picks them up into a new controller as it
        # sends the controller on to b: one move, its timer restarted, and
        # the wrap that follows counts every unit once
        # units the root reserves and holds (steps 5 and 7), then round robin
        replay = [1, 2, 3, 0, 1, 2, 1, 2, 1, 2, 3, 0] + [1, 2, 3, 0] * 2
        make = lambda: Workload([WorkloadEvent(4, "r", 2, 50)], 2)  # noqa: E731
        sim = canonical_sim(STAR)
        trace, log = self.logged_steps(monkeypatch, sim, sim.initial_configuration(),
                                       replay, make())
        assert trace.records[17].body == (f"proc=r event=deliver msg={self.CTRL} ch=0 "
                                          "sends=[1:Ctrl{c=0,r=0,pt=2,ppr=0}]")
        assert log[18] == {"passes": 0, "moves": [(2, Ctrl, 3)], "counted": [], "kept": True}
        assert trace.records[19].traversal_end.res_total == sim.params.ell
        assert all(rec.legit for rec in trace.records)
        mid = sim.run(sim.initial_configuration(), ReplayPolicy(replay[:18]), 18, make())
        assert mid.final.timer == 0

    # -- broken handlers: every check of the hop rule is read from the
    # -- configuration, none assumed from closure

    @staticmethod
    def broken_run(monkeypatch, handler, seed):
        """``run_checked`` with the non-root controller handler replaced by
        ``handler(handle, st, q, msg, p)``, given the real one as
        ``handle``, round robin from the canonical start on a seeded tree;
        the run must leave legitimacy at least once."""
        handle = protocol.handle_ctrl_nonroot
        monkeypatch.setattr(protocol, "handle_ctrl_nonroot",
                            lambda st, q, msg, p: handler(handle, st, q, msg, p))
        sim = canonical_sim(random_tree(40 + seed, 6 + seed))
        trace = run_checked(sim, sim.initial_configuration(), RoundRobinPolicy(), 400)
        assert closure_regressions(trace) > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_hop_that_does_not_advance_succ(self, monkeypatch, seed):
        # a hop sends the controller on to the next channel but leaves Succ
        # where it was: the controller lands one place on, valid, and only
        # its old receiver's state shows it off the canonical traversal
        def stuck(handle, st, q, msg, p):
            succ = st.succ
            out = handle(st, q, msg, p)
            if q and q == succ and msg.c == st.myc:
                st.succ = succ
            return out

        self.broken_run(monkeypatch, stuck, seed)

    @pytest.mark.parametrize("seed", range(1, 7))  # trees with a non-root of two children
    def test_hop_past_a_child(self, monkeypatch, seed):
        # a process that sends the controller down to a child that has a
        # next sibling sends it to that sibling instead, Succ with it: its
        # own state agrees with the place it lands on, valid for the new
        # receiver, and only the place, not one on, tells
        def skipping(handle, st, q, msg, p):
            out = handle(st, q, msg, p)
            nxt = forward_channel(st.succ, p.delta)
            if out.sends and st.succ and nxt:
                st.succ = nxt
                out = HandlerOutput([(nxt, out.sends[0][1])])
            return out

        self.broken_run(monkeypatch, skipping, seed)

    def test_hop_without_its_pickup(self, monkeypatch):
        # the handlers never pick up what their receiver holds: a, in its
        # critical section with two units from channel 0, sends the
        # controller on as itself as it adopts it, and the running count
        # falls short by those units, which only the count clause reads
        monkeypatch.setattr(protocol, "_pick_up", lambda st, q, msg, p: (msg.pt, msg.ppr))
        sim = canonical_sim(CHAIN)
        trace = run_checked(sim, sim.initial_configuration(), RoundRobinPolicy(), 40,
                            Workload([WorkloadEvent(0, "a", 2, 100)], 2))
        (step,) = [i for i, rec in enumerate(trace.records)
                   if rec.body == self.HOPS[0]]
        assert trace.records[step - 1].legit and not trace.records[step].legit
        assert trace.final.states["a"].state == IN

    def test_hops_equal_generic_steps(self, monkeypatch):
        # runs with requests from arbitrary and canonical starts: every
        # step equals the one in which the tally refuses to settle and
        # leaves every check to ``step_checks``.  The hop rule reads many
        # hops and refuses some
        seen = refused_settle_runs(monkeypatch, 800, 6, True, 0.03, 1500)
        assert seen.count(("hop", True)) > 200 and seen.count(("hop", False)) > 20


@pytest.mark.pin
class TestHold:
    """A token its receiver's handler keeps (a unit reserved, or the
    priority token taken by a requester short of its need) is held where
    it was counted free, at the slot it was delivered from: when the step
    does not count the receiver again for another reason,
    ``Tally.settle`` rewrites only the RSet, Prio and units in use of the
    receiver's part and moves each token its pass released from the slot
    it was held at.  Nothing is counted in or out, the receiver is not
    counted again, and the last checks stand.  A hold's record is looked
    up by the record's own fields."""

    logged_steps = staticmethod(TestPureForward.logged_steps)

    @staticmethod
    def record_settles(monkeypatch):
        """Record every ``Tally.settle`` call that is not a pure move as
        (step, process, whether it settled: the process is not counted
        again); ``logged_steps`` undoes the patch with its own."""
        settle, calls = monitor.Tally.settle, []

        def recording(self, pid, st, t, msg, placed, woken):
            pure = settle(self, pid, st, t, msg, placed, woken)
            if not pure:
                calls.append((self.cfg.step, pid, pid not in woken))
            return pure

        monkeypatch.setattr(monitor.Tally, "settle", recording)
        return calls

    HELD = {"passes": 1, "moves": [], "counted": [], "kept": True}

    # CHAIN's ring: slot 0 (r, 0), the wrap channel; 1 (a, 0); 2 (b, 0);
    # 3 (a, 1).  The canonical start queues the priority token, the three
    # units, the pusher and the controller at slot 1, in that order

    def test_reservations_and_prio_keep_at_a_non_root(self, monkeypatch):
        # a requests two units: it takes the priority token (step 1) and
        # reserves a unit (step 2), each one hold; the second unit satisfies
        # it, and its pass enters the section and hands the token on: the
        # unit is held where it was counted, the token moves from the slot
        # it was held at (a's channel 0, slot 1) to b's (slot 2), and a is
        # not counted again
        sim = canonical_sim(CHAIN)
        cfg = sim.initial_configuration()
        cfg.states["a"].state, cfg.states["a"].need = REQ, 2
        holds = self.record_settles(monkeypatch)
        trace, log = self.logged_steps(monkeypatch, sim, cfg, [None, 1, 1, 1])
        assert [rec.body for rec in trace.records[1:3]] == [
            "proc=a event=deliver msg=PrioT ch=0 sends=[]",
            "proc=a event=deliver msg=ResT ch=0 sends=[]"]
        assert log[2:4] == [self.HELD, self.HELD]
        assert holds == [(1, "a", True), (2, "a", True), (3, "a", True)]
        assert trace.records[3].transitions == (("a", REQ, IN),)
        assert log[4] == {"passes": 1, "moves": [(1, PrioT, 2)], "counted": [], "kept": True}
        a = trace.final.states["a"]
        assert (a.prio, [e.channel for e in a.rset], a.state) == (None, [0, 0], IN)
        assert all(rec.legit for rec in trace.records)

    def test_hold_on_the_roots_wrap_channel(self, monkeypatch):
        # the root requests two units: the priority token reaches it on its
        # wrap channel (slot 0) at step 4, a unit at step 8; each is held at
        # slot 0, where the controller's pickup at the wrap counts it
        sim = canonical_sim(CHAIN)
        cfg = sim.initial_configuration()
        cfg.states["r"].state, cfg.states["r"].need = REQ, 2
        holds = self.record_settles(monkeypatch)
        trace, log = self.logged_steps(monkeypatch, sim, cfg, [None] + [1, 2, 3, 0] * 2)
        assert [trace.records[i].body for i in (4, 8)] == [
            "proc=r event=deliver msg=PrioT ch=0 sends=[]",
            "proc=r event=deliver msg=ResT ch=0 sends=[]"]
        assert [log[5], log[9]] == [self.HELD, self.HELD]
        assert holds == [(4, "r", True), (8, "r", True)]
        assert all(rec.legit for rec in trace.records)

    def test_equal_holds_share_a_record(self, monkeypatch):
        # b, asking for three units with k = 3, takes the priority token
        # and then the units a forwarded to it: the first two units are
        # holds with one body and one outcome, and share a record
        sim = canonical_sim(CHAIN, k=3)
        cfg = sim.initial_configuration()
        cfg.states["b"].state, cfg.states["b"].need = REQ, 3
        trace = run_checked(sim, cfg, ReplayPolicy([None, 1, 1, 1, 1, 2, 2, 2]), 8)
        body = "proc=b event=deliver msg=ResT ch=0 sends=[]"
        assert [rec.body for rec in trace.records[6:8]] == [body, body]
        assert trace.records[6] is trace.records[7]

    # -- what falls back to counting the token out and the receiver again

    def test_dirty_first_step(self, monkeypatch):
        # a keeps the priority token in the first step, which names every
        # process: the tally refuses to settle it, the token is counted out
        # and every process counted again
        sim = canonical_sim(CHAIN)
        cfg = sim.initial_configuration()
        cfg.states["a"].state, cfg.states["a"].need = REQ, 2
        holds = self.record_settles(monkeypatch)
        trace, log = self.logged_steps(monkeypatch, sim, cfg, [1])
        assert trace.records[0].body == "proc=a event=deliver msg=PrioT ch=0 sends=[]"
        assert log[1]["moves"] == [(1, PrioT, None)]
        assert sorted(log[1]["counted"]) == sorted(CHAIN.process_ids)
        assert holds == [(0, "a", False)]

    def test_functional_step(self, monkeypatch):
        # ``sim.step`` counts its clone's tally for the first time in its
        # one step, which names every process: a, already holding a unit,
        # keeps the priority token, the tally refuses to settle it, and the
        # step's checks are those of its successor counted from scratch
        sim = canonical_sim(CHAIN, k=3)
        cfg = sim.initial_configuration()
        unit = cfg.channels[("a", 0)].pop(1)
        a = cfg.states["a"]
        a.state, a.need, a.rset = REQ, 3, [Reserved(0, unit.uid)]
        holds = self.record_settles(monkeypatch)
        execute, records = Simulator.execute_step, []
        monkeypatch.setattr(Simulator, "execute_step",
                            lambda self, *args: records.append(execute(self, *args))
                            or records[-1])
        nxt = sim.step(cfg, 1)
        monkeypatch.undo()
        (rec,) = records
        assert (nxt.states["a"].prio, holds) == (0, [(0, "a", False)])
        assert (rec.census, rec.legit, rec.violations) == sim.check(nxt)
        assert rec.census.res_tokens == sim.params.ell

    def test_more_than_k_units(self, monkeypatch):
        # a hand-built start in which a asks for five units with k = 2: the
        # priority token and two units are held, but the third unit would
        # give a more than k, which is a violation only a count of a finds;
        # it is reported at the step a reserves the unit
        sim = canonical_sim(CHAIN, ell=5, k=2)
        cfg = sim.initial_configuration()
        cfg.states["a"].state, cfg.states["a"].need = REQ, 5
        holds = self.record_settles(monkeypatch)
        trace, log = self.logged_steps(monkeypatch, sim, cfg, [None, 1, 1, 1, 1])
        assert holds == [(1, "a", True), (2, "a", True), (3, "a", True), (4, "a", False)]
        assert log[2:5] == [self.HELD] * 3
        assert log[5] == {"passes": 1, "moves": [(1, ResT, None)], "counted": ["a"],
                          "kept": False}
        assert [rec.violations for rec in trace.records] == [()] * 4 + [
            ("a bounded variable outside domain",)]

    def test_unit_kept_in_the_section(self, monkeypatch):
        # a handler patched to reserve a unit for a process in its section
        # that holds one already: with ell = 2 and a unit more than ell, r
        # and b each hold one in their sections, and b's second puts three
        # in use, which only a count of b finds
        def reserving_dispatch(st, q, msg, p):
            if msg.__class__ is ResT and st.state == IN and st.rset:
                st.rset.append(Reserved(q, msg.uid))
                return HandlerOutput()
            return dispatch(st, q, msg, p)

        monkeypatch.setattr(simnet, "dispatch", reserving_dispatch)
        sim = canonical_sim(CHAIN, ell=2, k=2)
        cfg = sim.initial_configuration()
        q = cfg.channels[("a", 0)]
        units = [m for m in q if isinstance(m, ResT)]
        q[:] = [m for m in q if not isinstance(m, ResT)]
        cfg.channels[("b", 0)].append(ResT())
        for pid, unit in zip("br", units):
            cfg.states[pid].state, cfg.states[pid].rset = IN, [Reserved(0, unit.uid)]
            cfg.app.remaining[pid] = float("inf")
        trace = run_checked(sim, cfg, ReplayPolicy([None, 2]), 2)
        assert trace.records[1].body == "proc=b event=deliver msg=ResT ch=0 sends=[]"
        assert [rec.violations for rec in trace.records] == [(), ("3 > ell units in use",)]

    def test_holds_equal_generic_steps(self, monkeypatch):
        # runs with requests from arbitrary and canonical starts: every step
        # equals the one in which the tally settles no pass, so that a kept
        # token is counted out of its slot, a released one into its channel,
        # its receiver counted again and its record looked up by the
        # record's own fields.  Among the settled passes are holds (plain
        # entries among them), entries handing Prio on and section ends
        seen = refused_settle_runs(monkeypatch, 600, 5, False, 0.05, 800)
        assert seen.count(("hold", True)) > 100
        assert seen.count(("entry handing Prio on", True)) > 50
        assert seen.count(("section end", True)) > 50


@pytest.mark.pin
class TestSettle:
    """One counting rule for every step: ``Tally.settle`` pairs each message
    the step placed with where it was counted, the delivered message sent
    on with the slot it was delivered from, and a token its process
    released (a unit by uid, the priority token by its old Prio label)
    with the slot it was held at, and moves it from there.  A token kept
    this step stays where it was counted, and only the RSet, Prio and units
    in use of the process's part are rewritten: a section's entry and end,
    and a release the pusher forces, cost moves, not a recount.  Whatever
    it cannot read that way, it refuses: the sends are counted in and the
    process again."""

    logged_steps = staticmethod(TestPureForward.logged_steps)
    record_settles = staticmethod(TestHold.record_settles)

    # CHAIN's ring: slot 0 (r, 0), the wrap channel; 1 (a, 0); 2 (b, 0);
    # 3 (a, 1).  The canonical start queues the priority token, the three
    # units, the pusher and the controller at slot 1, in that order

    def test_section_entry(self, monkeypatch):
        # the priority token goes round first (steps 0-3), and a requests
        # one unit at step 3; the unit it takes at step 4 satisfies it, and
        # its pass enters the section: the unit is held where it was
        # counted, nothing moves and nobody is counted again.  Two steps on,
        # the section ends, and the unit moves from a's channel 0 (slot 1),
        # where it was held, to b's (slot 2)
        sim = canonical_sim(CHAIN)
        settles = self.record_settles(monkeypatch)
        trace, log = self.logged_steps(monkeypatch, sim, sim.initial_configuration(),
                                       [1, 2, 3, 0, 1, None, None],
                                       Workload([WorkloadEvent(3, "a", 1, 2)], 2))
        entry = trace.records[4]
        assert entry.body == ("proc=a event=deliver msg=ResT ch=0 sends=[]\n"
                              "proc=a event=local msg=actions ch=- sends=[]")
        assert (entry.entries, entry.transitions) == (("a",), (("a", REQ, IN),))
        assert log[5] == {"passes": 1, "moves": [], "counted": [], "kept": True}
        assert trace.records[6].body == "proc=a event=local msg=actions ch=- sends=[1:ResT]"
        assert log[7] == {"passes": 1, "moves": [(1, ResT, 2)], "counted": [], "kept": True}
        assert settles == [(4, "a", True), (6, "a", True)]
        assert all(rec.legit for rec in trace.records)

    @staticmethod
    def keeping_prio(monkeypatch):
        """A pass patched to keep the priority token through its section,
        which it passes on only as the section ends, with its units."""
        def keeping(st, p, cs_done):
            prio = st.prio
            if prio is not None and (st.state == IN and not cs_done
                                     or st.state == REQ and len(st.rset) >= st.need):
                st.prio = None
                out = local_actions(st, p, cs_done)
                st.prio = prio
                return out
            return local_actions(st, p, cs_done)

        monkeypatch.setattr(simnet, "local_actions", keeping)

    def test_section_end_releases_units_and_prio(self, monkeypatch):
        # a requests two units: it takes the priority token (step 1) and
        # two units (steps 2 and 3), and keeps the token in its one-step
        # section.  As the section ends (step 4), its pass releases the
        # units and the token, each one move from a's channel 0 (slot 1),
        # where it was held, to b's (slot 2), and a is not counted again
        sim = canonical_sim(CHAIN)
        cfg = sim.initial_configuration()
        cfg.states["a"].state, cfg.states["a"].need = REQ, 2
        self.keeping_prio(monkeypatch)
        settles = self.record_settles(monkeypatch)
        trace, log = self.logged_steps(monkeypatch, sim, cfg, [None, 1, 1, 1, None])
        assert trace.records[3].entries == ("a",)
        assert trace.records[4].body == (
            "proc=a event=local msg=actions ch=- sends=[1:ResT,1:ResT,1:PrioT]")
        assert log[5] == {"passes": 1, "moves": [(1, ResT, 2), (1, ResT, 2), (1, PrioT, 2)],
                          "counted": [], "kept": True}
        assert settles == [(1, "a", True), (2, "a", True), (3, "a", True), (4, "a", True)]
        held = [m.uid for m in cfg.channels[("a", 0)][1:3]]
        assert [getattr(m, "uid", None) for m in trace.final.channels[("b", 0)]] == (
            held + [None])
        assert all(rec.legit for rec in trace.records)

    def test_root_releases_off_its_wrap_channel(self, monkeypatch):
        # the root requests two units: it holds the priority token (step 4)
        # and a unit (step 8) from its wrap channel (slot 0); the second
        # unit (step 12) satisfies it, and its pass enters and hands the
        # token on, one move off slot 0.  Its one-step section ends at step
        # 13, and it releases both units off slot 0, counting them into
        # SToken: the running count is read again, and the root is not
        # counted again
        sim = canonical_sim(CHAIN)
        cfg = sim.initial_configuration()
        cfg.states["r"].state, cfg.states["r"].need = REQ, 2
        settles = self.record_settles(monkeypatch)
        trace, log = self.logged_steps(monkeypatch, sim, cfg,
                                       [None] + [1, 2, 3, 0] * 3 + [None])
        assert trace.records[12].entries == ("r",)
        assert log[13] == {"passes": 1, "moves": [(0, PrioT, 1)], "counted": [],
                           "kept": True, "reread": True}
        assert trace.records[13].body == "proc=r event=local msg=actions ch=- sends=[0:ResT,0:ResT]"
        assert log[14] == {"passes": 1, "moves": [(0, ResT, 1), (0, ResT, 1)], "counted": [],
                           "kept": True, "reread": True}
        assert settles[-2:] == [(12, "r", True), (13, "r", True)]
        assert all(rec.legit for rec in trace.records)

    # -- refusals: the process is counted again

    def test_units_in_use_over_ell(self, monkeypatch):
        # ell = 2 and a unit more than ell, the first at the front of b's
        # channel: a enters its section with two units (step 3), settled,
        # and hands the priority token to b; b's entry with the third unit
        # (step 4) would put three units in use, which the tally refuses:
        # b is counted again, and the step reports the violation
        sim = canonical_sim(CHAIN, ell=2, k=2)
        cfg = sim.initial_configuration()
        cfg.channels[("b", 0)].append(ResT())
        for pid, need in [("a", 2), ("b", 1)]:
            cfg.states[pid].state, cfg.states[pid].need = REQ, need
            cfg.app.armed_duration[pid] = float("inf")
        settles = self.record_settles(monkeypatch)
        trace, log = self.logged_steps(monkeypatch, sim, cfg, [None, 1, 1, 1, 2, 2])
        assert [rec.entries for rec in trace.records[3:5]] == [("a",), ("b",)]
        assert settles[:4] == [(1, "a", True), (2, "a", True), (3, "a", True), (4, "b", False)]
        assert log[5] == {"passes": 1, "moves": [(2, ResT, None)], "counted": ["b"],
                          "kept": False}
        assert [rec.violations for rec in trace.records[3:]] == [()] + [
            ("3 > ell units in use",)] * 2

    # -- broken handlers: the held slot comes from the holdings, and a
    # -- released unit that vanished is found

    @staticmethod
    def broken_runs(monkeypatch):
        """``run_checked`` from canonical and arbitrary starts on seeded
        trees, with requests, under whatever the caller patched; returns,
        for every ``Tally.settle`` call, (the delivered message's class,
        the classes of the other messages placed, whether it settled)."""
        settle, outcomes = monitor.Tally.settle, []

        def recording(self, pid, st, t, msg, placed, woken):
            pure = settle(self, pid, st, t, msg, placed, woken)
            sent = tuple(m.__class__ for m, _ in placed if m is not msg)
            outcomes.append((msg.__class__, sent, pid not in woken))
            return pure

        monkeypatch.setattr(monitor.Tally, "settle", recording)
        for seed in range(4):
            topo = random_tree(300 + seed, 3 + seed)
            sim = canonical_sim(topo, ell=3, k=2)
            cfg = sim.inject_arbitrary(seed) if seed % 2 else sim.initial_configuration()
            run_checked(sim, cfg, RandomPolicy(seed), 600,
                        RandomWorkload(topo.process_ids, 2, seed, rate=0.08, max_duration=3))
        return outcomes

    @staticmethod
    def pass_releases(outcomes):
        """The outcomes of the application-phase passes that released a unit."""
        return [ok for cls, sent, ok in outcomes if cls is type(None) and ResT in sent]

    def test_release_onto_the_arrival_channel(self, monkeypatch):
        # a release sends each unit back on the channel it arrived on,
        # never to the next ring slot: each moves from the slot it was
        # held at all the same
        def back(st, p, out):
            for e in st.rset:
                out.sends.append((e.channel, ResT(uid=e.uid)))
            st.rset.clear()

        monkeypatch.setattr(protocol, "_release_all", back)
        outcomes = self.broken_runs(monkeypatch)
        assert self.pass_releases(outcomes).count(True) > 100

    def test_pass_that_drops_a_released_unit(self, monkeypatch):
        # a section's end loses the first unit it releases: the tally finds
        # a held unit gone and refuses, and the process is counted again
        def dropping(st, p, cs_done):
            out = local_actions(st, p, cs_done)
            units = [i for i, (_, m) in enumerate(out.sends) if m.__class__ is ResT]
            if units:
                del out.sends[units[0]]
            return out

        monkeypatch.setattr(simnet, "local_actions", dropping)
        outcomes = self.pass_releases(self.broken_runs(monkeypatch))
        assert len(outcomes) > 20 and not any(outcomes)

    def test_unit_reserved_from_another_channel(self, monkeypatch):
        # a reservation records the next channel round, not the one the
        # unit came on: the unit is held at another slot than the one it
        # was counted at, so the tally does not keep it there, and counts
        # the process again
        def misfiling(st, q, msg, p):
            out = dispatch(st, q, msg, p)
            if msg.__class__ is ResT and not out.sends and st.rset and p.delta > 1:
                st.rset[-1] = Reserved(forward_channel(q, p.delta), msg.uid)
            return out

        monkeypatch.setattr(simnet, "dispatch", misfiling)
        outcomes = self.broken_runs(monkeypatch)
        assert sum(cls is ResT and not ok for cls, _, ok in outcomes) > 20

    def test_unit_forwarded_under_another_uid(self, monkeypatch):
        # a forward tags the unit it sends on with the next uid, which
        # another unit may carry: the send is not the delivered unit, so
        # the delivered one is counted out and the new one in, and a unit
        # represented twice is found
        def retagging(st, q, msg, p):
            out = dispatch(st, q, msg, p)
            if msg.__class__ is ResT and out.sends:
                out = HandlerOutput([(out.sends[0][0], ResT(uid=msg.uid + 1))])
            return out

        monkeypatch.setattr(simnet, "dispatch", retagging)
        self.broken_runs(monkeypatch)

    def test_pusher_that_loses_a_unit(self, monkeypatch):
        # the pusher's handler loses the first unit it would release: at a
        # process holding one unit it sends only the pusher on, the
        # delivered message sent on, while the RSet empties.  The tally
        # reads the receiver's part, finds a held unit gone that nothing
        # placed, and refuses: the process is counted again
        handle, lost = protocol.handle_push_t, []

        def losing(st, q, msg, p):
            releases = st.prio is None and (st.state == OUT
                                            or st.state == REQ and len(st.rset) < st.need)
            if releases and st.rset:
                lost.append(st.rset.pop(0))
            return handle(st, q, msg, p)

        monkeypatch.setitem(protocol._HANDLERS, PushT, losing)
        outcomes = self.broken_runs(monkeypatch)
        refused = [sent for cls, sent, ok in outcomes if cls is PushT and not ok]
        assert len(lost) > 10 and len(refused) >= len(lost)
        assert () in refused  # a pusher sent on alone, its receiver's unit gone

    def test_pusher_release_at_a_non_root(self, monkeypatch):
        # b, the leaf, requests two units and holds one from its channel 0
        # (slot 2), where the pusher is queued: the pusher forces b to
        # release its unit, and both go on to a's channel 1 (slot 3), each
        # one move from the slot it was counted at.  Nobody is counted
        # again, the last checks stand, and the records equal those of a
        # run in which the tally refuses every settle
        sim = canonical_sim(CHAIN)
        cfg = sim.initial_configuration()
        q = cfg.channels[("a", 0)]
        unit = q.pop(1)
        cfg.channels[("b", 0)].append(q.pop(3))
        b = cfg.states["b"]
        b.state, b.need, b.rset = REQ, 2, [Reserved(0, unit.uid)]
        replay = [None, 2, 3, 3]
        trace, log = self.logged_steps(monkeypatch, sim, cfg, replay)
        assert trace.records[1].body == "proc=b event=deliver msg=PushT ch=0 sends=[0:ResT,0:PushT]"
        assert log[2] == {"passes": 1, "moves": [(2, ResT, 3), (2, PushT, 3)], "counted": [],
                          "kept": True}
        assert all(rec.legit for rec in trace.records)
        monkeypatch.setattr(monitor.Tally, "settle", refusing_settle)
        ref = sim.run(cfg, ReplayPolicy(replay), len(replay))
        assert list(trace.lines()) == list(ref.lines())
        assert trace.records == ref.records

    def test_pusher_releases_equal_generic_steps(self, monkeypatch):
        # runs with requests from arbitrary and canonical starts: every step
        # equals the one in which the tally refuses to settle.  Among the
        # settled steps are many a pusher's delivery forces a release on
        seen = refused_settle_runs(monkeypatch, 900, 5, False, 0.1, 1500)
        assert seen.count(("pusher release", True)) > 50


@pytest.mark.pin
class TestRequestWakesThePass:
    """A request writes only ``state`` (Out to Req) and ``need``, which no
    check reads: its process gets a local-action pass, and is counted again
    only when that pass wrote a line."""

    logged_steps = staticmethod(TestPureForward.logged_steps)

    def test_request_whose_pass_does_nothing(self, monkeypatch):
        # CHAIN round robin from the canonical start: the priority token
        # goes round first (steps 0-3), then a forwards a unit to b (step
        # 4), as b, holding nothing, requests one
        sim = canonical_sim(CHAIN)
        trace, log = self.logged_steps(monkeypatch, sim, sim.initial_configuration(),
                                       [1, 2, 3, 0, 1],
                                       Workload([WorkloadEvent(4, "b", 1, 2)], 2))
        rec = trace.records[4]
        assert rec.body == ("proc=b event=local msg=request{need=1} ch=- sends=[]\n"
                            "proc=a event=deliver msg=ResT ch=0 sends=[1:ResT]")
        assert (rec.requests, rec.transitions) == ((("b", 1),), (("b", OUT, REQ),))
        assert log[5] == {"passes": 1, "moves": [(1, ResT, 2)], "counted": [], "kept": True}

    def test_request_whose_pass_enters_the_section(self, monkeypatch):
        # a hand-built start in which a, at Out, holds all three units, more
        # than k = 2: its request for one unit takes it into its section at
        # once, which the pass's line shows, and a is counted again, so the
        # step reports the new violation
        sim = canonical_sim(CHAIN)
        cfg = sim.initial_configuration()
        q = cfg.channels[("a", 0)]
        cfg.states["a"].rset = [Reserved(0, m.uid) for m in q if isinstance(m, ResT)]
        q[:] = [m for m in q if not isinstance(m, ResT)]
        trace, log = self.logged_steps(monkeypatch, sim, cfg, [None, None],
                                       Workload([WorkloadEvent(1, "a", 1, 2)], 2))
        rec = trace.records[1]
        assert rec.body == ("proc=a event=local msg=request{need=1} ch=- sends=[]\n"
                            "proc=a event=local msg=actions ch=- sends=[]")
        assert rec.entries == ("a",)
        assert log[2] == {"passes": 1, "moves": [], "counted": ["a"], "kept": False}
        assert "a in CS with 3 > k units" in rec.violations
        assert "a in CS with 3 > k units" not in trace.records[0].violations


@pytest.mark.pin
class TestRunningCountShift:
    """A token that passes the controller's place, lands behind a control
    message or leaves the root's wrap channel (slot 0, where the root
    counts it into SToken, SPush or SPrio) changes only what the
    running-count clause reads: the last checks stand but for their
    verdict, which ``step_checks`` reads again as ``Tally.base`` and that
    clause (``Tally.stale``).  The root is not counted again for a forward
    or prio pass off slot 0 while its part has no violation and its
    counters are inside their domains, so the step is a lone one; else it
    is counted again
    (``TestPureForward.test_root_forward_off_its_wrap_channel_changes_its_state``).
    A unit passing the controller under a replay is
    ``TestTallyMatchesScratch.test_shift_behind_the_controller``."""

    logged_steps = staticmethod(TestPureForward.logged_steps)
    CTRL_AT_2 = TestTallyMatchesScratch.CTRL_AT_2
    REREAD = {"passes": 0, "counted": [], "kept": True, "reread": True}

    # CHAIN's ring: slot 0 (r, 0), the wrap channel; 1 (a, 0); 2 (b, 0);
    # 3 (a, 1).  The canonical start queues the priority token, the three
    # units, the pusher and the controller at slot 1, in that order

    def test_unit_behind_a_control_message(self, monkeypatch):
        # the priority token and then the units go round once each: the
        # root forwards each unit off slot 0 into slot 1, behind the
        # controller still queued there.  The root is not counted again,
        # and the equal forwards share one record, looked up by slot
        sim = canonical_sim(CHAIN)
        trace, log = self.logged_steps(monkeypatch, sim, sim.initial_configuration(),
                                       [1, 2, 3, 0] * 3)
        assert trace.records[7].body == "proc=r event=deliver msg=ResT ch=0 sends=[0:ResT]"
        assert log[8] == log[12] == {**self.REREAD, "moves": [(0, ResT, 1)]}
        assert trace.records[7] is trace.records[11]
        assert trace.final.states["r"].stoken == 2
        assert all(rec.legit for rec in trace.records)

    def test_forward_off_the_wrap_channel_with_stoken_at_its_cap(self, monkeypatch):
        # SToken at ell+1, the top of its domain: the running count is off
        # from the start, every other clause holds.  The root forwards a
        # unit off slot 0 into slot 1; SToken stays at ell+1 as the unit
        # lands behind the controller, and the re-read clause reports it
        # still false.  (No legitimate configuration has SToken at ell+1:
        # the clause would need ell+1 units counted, one more than the
        # census holds)
        sim = canonical_sim(CHAIN)
        cfg = sim.initial_configuration()
        cfg.states["r"].stoken = sim.params.ell + 1
        cfg.channels[("r", 0)].append(cfg.channels[("a", 0)].pop(1))
        trace, log = self.logged_steps(monkeypatch, sim, cfg, [None, 0])
        assert trace.records[1].body == "proc=r event=deliver msg=ResT ch=0 sends=[0:ResT]"
        assert log[2] == {**self.REREAD, "moves": [(0, ResT, 1)]}
        assert trace.final.states["r"].stoken == sim.params.ell + 1
        assert [rec.violations for rec in trace.records] == [(), ()]
        assert not any(rec.legit for rec in trace.records)

    # -- broken handlers: the re-read reads the configuration, and assumes
    # -- nothing from closure

    def test_forward_off_the_wrap_channel_to_the_wrong_child(self, monkeypatch):
        # STAR's ring: slot 0 (r, 1), the root's wrap channel; 1 (a, 0);
        # 2 (r, 0); 3 (b, 0).  The root's handler, patched to send a unit
        # from its wrap channel back to b (slot 3) rather than on to a,
        # counts it into SToken, but it lands neither behind the controller
        # (valid on slot 1) nor behind a control message: only its leaving
        # slot 0 shows the running count off, and the re-read finds it
        def misrouting_dispatch(st, q, msg, p):
            out = dispatch(st, q, msg, p)
            if p.is_root and q == p.delta - 1 and msg.__class__ is ResT:
                out = HandlerOutput([(1, msg)])
            return out

        sim = canonical_sim(STAR)
        cfg = sim.initial_configuration()
        cfg.channels[("r", 1)].append(cfg.channels[("a", 0)].pop(1))
        monkeypatch.setattr(simnet, "dispatch", misrouting_dispatch)
        trace, log = self.logged_steps(monkeypatch, sim, cfg, [None, 0])
        assert trace.records[1].body == "proc=r event=deliver msg=ResT ch=1 sends=[1:ResT]"
        assert log[2] == {**self.REREAD, "moves": [(0, ResT, 3)], "kept": False}
        assert [rec.legit for rec in trace.records] == [True, False]

    def test_reset_flag_set_on_a_hop(self, monkeypatch):
        # a's handler, patched to set the reset flag on the controller it
        # adopts and sends on (step 5): the hop rule reads the flag, and
        # the later shifts (steps 10-12) re-read the verdict from what the
        # hop left, which stays false
        handle = protocol.handle_ctrl_nonroot

        def resetting(st, q, msg, p):
            out = handle(st, q, msg, p)
            if out.sends and not q:
                ((label, m),) = out.sends
                out = HandlerOutput([(label, dataclasses.replace(m, r=True))])
            return out

        monkeypatch.setattr(protocol, "handle_ctrl_nonroot", resetting)
        sim = canonical_sim(CHAIN)
        trace, log = self.logged_steps(monkeypatch, sim, sim.initial_configuration(),
                                       self.CTRL_AT_2)
        assert trace.records[5].body == ("proc=a event=deliver msg=Ctrl{c=0,r=0,pt=0,ppr=0} "
                                         "ch=0 sends=[1:Ctrl{c=0,r=1,pt=0,ppr=0}]")
        assert log[6] == {"passes": 0, "moves": [(1, Ctrl, 2)], "counted": [], "kept": True}
        assert [log[i].get("reread") for i in (11, 12, 13)] == [True] * 3
        assert [rec.legit for rec in trace.records] == [True] * 5 + [False] * 8

    def test_shifts_equal_generic_steps(self, monkeypatch):
        # runs with requests from arbitrary and canonical starts: every step
        # equals the one in which a token that shifts the running counts
        # drops the last checks, so that the step checks in full and counts
        # the root again after its forwards and prio passes off slot 0
        move, checks = monitor.Tally.move, monitor.step_checks
        rereads = []

        def counting_checks(tally, procs):
            rereads.append(not procs and tally.last is not None and tally.stale)
            return checks(tally, procs)

        def dropping_move(self, frm, m, to):
            move(self, frm, m, to)
            if self.stale:
                self.last = None

        for seed in range(6):
            topo = random_tree(1000 + seed, 3 + seed % 5)
            sim = canonical_sim(topo)
            cfg = sim.inject_arbitrary(seed) if seed % 2 else sim.initial_configuration()
            make = lambda: RandomWorkload(topo.process_ids, 2, seed,  # noqa: E731
                                          rate=0.05, max_duration=3)
            monkeypatch.setattr(monitor, "step_checks", counting_checks)
            trace = run_checked(sim, cfg, RandomPolicy(seed), 800, make())
            monkeypatch.undo()
            monkeypatch.setattr(monitor.Tally, "move", dropping_move)
            ref = sim.run(cfg, RandomPolicy(seed), 800, make())
            monkeypatch.undo()
            assert list(trace.lines()) == list(ref.lines())
            assert trace.records == ref.records
        assert rereads.count(True) > 200


@pytest.mark.pin
class TestSetUpFootprint:
    """A campaign builds all its simulators and starts before it runs any,
    so set-up builds no per-slot or per-process table: the ring's ``slot``,
    ``dest`` and ``places`` and the simulator's ``pp``, ``rows`` and
    ``order`` wait for the first run or step, and every later run or
    step of that simulator reuses them."""

    def test_set_up_builds_no_slot_tables(self):
        topo = random_tree(11, 10)
        sim = Simulator(topo, SimParams(k=2, ell=3, cmax=2, timeout=50))
        sim.inject_arbitrary(3)
        assert not {"slot", "dest", "places", "order"} & set(vars(topo.ring))
        assert (sim.pp, sim.rows, sim.order) == (None, None, None)
        sim.run(sim.inject_arbitrary(3), RoundRobinPolicy(), 5)
        assert {"slot", "dest", "places"} <= set(vars(topo.ring))
        assert len(sim.rows) == len(sim.channel_keys) + 1
        assert list(sim.pp) == list(topo.process_ids)
        assert "event=" not in repr(vars(sim))

    def test_stored_configuration_is_compact(self):
        # a campaign holds every start it built until it runs it: an empty
        # channel is a small list and a process state has no instance dict
        sim = Simulator(random_tree(0, 40), SimParams(k=2, ell=3, cmax=1, timeout=None))
        sim.empty_configuration()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [sim.empty_configuration() for _ in range(50)]
            size = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        items = len(kept) * (len(sim.channel_keys) + sim.topo.n)
        assert size / items <= 200

    def test_runs_and_steps_reuse_the_rows(self):
        sim = make_sim()
        cfg = sim.initial_configuration()
        sim.run(cfg, RoundRobinPolicy(), 5)
        rows = sim.rows
        sim.run(cfg, RoundRobinPolicy(), 5)
        assert sim.rows is rows
        sim.step(cfg, sim.enabled_events(cfg)[0])
        assert sim.rows is rows
        assert rows[-1] == (sim.topo.root, "-", sim.pp[sim.topo.root],
                            sim.topo.ring.dest[sim.topo.root])
        # the sort key of the processes a step woke: their place in
        # ``process_ids`` (r, a, b), not their names
        assert [sim.order(p) for p in ("a", "b", "r")] == [1, 2, 0]


@pytest.mark.pin
class TestIndexContract:
    """``Configuration.busy``, the index of non-empty channels, lives only
    while a run or step holds the configuration: ``enabled_events`` counts
    the channels of any other configuration and stores nothing in it, and
    what ``run`` and ``step`` hand back carries no index."""

    @staticmethod
    def make(timeout=50):
        return Simulator(random_tree(11, 10), SimParams(k=2, ell=3, cmax=2, timeout=timeout))

    @staticmethod
    def nonempty(sim, cfg):
        return [t for t, key in enumerate(sim.channel_keys) if cfg.channels[key]]

    def test_query_stores_nothing_and_sees_hand_edits(self):
        sim = self.make()
        cfg = sim.initial_configuration()
        assert sim.enabled_events(cfg) == [1]
        assert cfg.busy is None
        cfg.channels[sim.channel_keys[3]].append(Ctrl(0, False, 0, 0))
        assert sim.enabled_events(cfg) == [1, 3]
        assert cfg.busy is None

    @pytest.mark.parametrize("ended", ["budget", "quiescent", "stopped",
                                       "replay-exhausted", "step"])
    def test_run_and_step_hand_back_no_index(self, ended):
        sim = self.make(timeout=None)
        cfg = sim.initial_configuration()
        live = []  # whether the index matched the channels after each step
        if ended == "step":
            out = sim.step(cfg, 1)
        else:
            trace = sim.run(
                sim.empty_configuration() if ended == "quiescent" else cfg,
                ReplayPolicy([1]) if ended == "replay-exhausted" else RoundRobinPolicy(),
                5,
                observer=lambda c, rec: live.append(c.busy == self.nonempty(sim, c)),
                stop=(lambda recs, c: True) if ended == "stopped" else None,
            )
            assert trace.ended == ended
            out = trace.final
        assert all(live)
        assert out.busy is None and cfg.busy is None
        empty = [t for t in range(len(sim.channel_keys)) if t not in self.nonempty(sim, out)]
        out.channels[sim.channel_keys[empty[-1]]].append(PushT())
        assert empty[-1] in self.nonempty(sim, out)
        assert sim.enabled_events(out) == self.nonempty(sim, out)
        assert out.busy is None


@pytest.mark.pin
class TestStepRecordFootprint:
    """A record is a step's outcome, frozen, slotted, with tuple event
    fields, and equal steps of a run share one record, so a long trace
    holds a list slot per step and few objects the garbage collector has to
    walk; a record's step number is its position in the trace."""

    def test_slotted_with_tuple_fields(self):
        sim = make_sim()
        workload = Workload([WorkloadEvent(0, "a", 1, 2)], 2)
        trace = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 30, workload)
        for rec in trace.records:
            assert not hasattr(rec, "__dict__")
            for name in ("entries", "requests", "transitions"):
                assert type(getattr(rec, name)) is tuple, name
            assert type(rec.violations) is tuple
        assert any(rec.entries for rec in trace.records)

    def test_equal_outcomes_share_one_record(self):
        sim = canonical_sim(random_tree(4, 4))
        trace = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 60_000)
        first: dict = {}
        for rec in trace.records:
            assert first.setdefault(rec, rec) is rec
        assert len(trace.records) == 60_000
        assert len(first) == len({id(rec) for rec in trace.records}) == 96

    def test_record_is_frozen(self):
        sim = make_sim()
        rec = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 1).records[0]
        body = rec.body
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))
        assert not hasattr(rec, "step") and not hasattr(rec, "lines")
        with pytest.raises(AttributeError, match="'step'"):
            rec.step = 3
        for name in ("body", "step"):
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert rec.body is body
        assert copy.deepcopy(rec) == rec == pickle.loads(pickle.dumps(rec))

    def test_run_from_a_later_step_numbers_from_it(self, monkeypatch):
        # the first delivery takes its idle receiver straight into its
        # critical section, a forbidden transition at the run's first step
        dispatch = simnet.dispatch
        forced = []

        def forcing_dispatch(st, ch, msg, pp):
            out = dispatch(st, ch, msg, pp)
            if not forced and st.state == OUT:
                st.state = IN
                forced.append(st)
            return out

        monkeypatch.setattr(simnet, "dispatch", forcing_dispatch)
        sim = make_sim()
        cfg = sim.initial_configuration()
        cfg.step = 100
        wl = Workload([WorkloadEvent(102, "b", 1, 2)], 2)
        trace = sim.run(cfg, RoundRobinPolicy(), 30, wl)
        assert trace.first_step == 100
        lines = list(trace.lines())
        assert lines[0] == "step=100 proc=a event=deliver msg=PrioT ch=0 sends=[]"
        assert lines[4] == "step=102 proc=b event=local msg=request{need=1} ch=- sends=[]"
        assert lines[-1].startswith("step=129 ")
        got = [(r.process, r.step_requested, r.step_entered, r.waiting)
               for r in collect_requests(trace)]
        assert got == [("b", 102, 105, 0)]
        assert check_safety(trace).post_stabilization == [
            f"a: forbidden transition {OUT}->{IN} at step 100"]

    def test_trace_lines_stream(self):
        sim = make_sim()
        trace = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 5)
        lines = trace.lines()
        assert iter(lines) is lines
        assert next(lines).startswith("step=0 ")

    def test_retained_bytes_per_step(self):
        sim = canonical_sim(random_tree(4, 4))
        sim.run(sim.initial_configuration(), RoundRobinPolicy(), 10)  # warm caches
        cfg0 = sim.initial_configuration()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = sim.run(cfg0, RoundRobinPolicy(), 2000)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace.records) == 2000
        assert retained / len(trace.records) <= 40

    def test_equal_bodies_share_one_string(self):
        sim = canonical_sim(random_tree(4, 4))
        trace = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 2000)
        first: dict[str, str] = {}
        for rec in trace.records:
            assert first.setdefault(rec.body, rec.body) is rec.body
        assert len(first) < len(trace.records) // 10

    def test_tracked_objects_per_step(self):
        sim = canonical_sim(random_tree(4, 4))
        sim.run(sim.initial_configuration(), RoundRobinPolicy(), 10)  # warm caches
        cfg0 = sim.initial_configuration()
        gc.collect()
        before = len(gc.get_objects())
        trace = sim.run(cfg0, RoundRobinPolicy(), 2000)
        gc.collect()
        per_step = (len(gc.get_objects()) - before) / len(trace.records)
        assert len(trace.records) == 2000
        assert any(rec.traversal_end for rec in trace.records)
        assert per_step <= 0.1


@pytest.mark.pin
class TestStepLines:
    """A record keeps its lines as a body without the ``step=N `` prefix;
    ``trace.lines()`` renders it again, numbered by the record's position."""

    def test_idle_steps_render_no_line(self):
        sim = make_sim(timeout=2)
        trace = sim.run(sim.empty_configuration(), ReplayPolicy([None, None]), 5)
        assert [step for step, _ in enumerate(trace.records, trace.first_step)] == [0, 1]
        assert all(rec.body == "" for rec in trace.records)
        assert list(trace.lines()) == []

    def test_idle_steps_among_busy_ones(self):
        sim = make_sim(timeout=2)
        trace = sim.run(sim.empty_configuration(),
                        ReplayPolicy([None, None, len(sim.channel_keys), None]), 5)
        assert [rec.body == "" for rec in trace.records] == [True, True, False, True]
        assert list(trace.lines()) == ["step=2 " + trace.records[2].body]
        assert trace.records[2].body.startswith("proc=r event=timeout msg=- ch=- sends=[")

    def test_delivery_local_pass_and_request(self):
        sim = make_sim()
        wl = Workload([WorkloadEvent(5, "r", 1, 2)], 2)
        trace = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 6, wl)
        lines = [line for line in trace.lines() if line.startswith("step=5 ")]
        assert lines == [
            "step=5 proc=r event=local msg=request{need=1} ch=- sends=[]",
            "step=5 proc=r event=deliver msg=ResT ch=0 sends=[]",
            "step=5 proc=r event=local msg=actions ch=- sends=[]",
        ]
        assert list(trace.lines())[-3:] == lines
        assert list(trace.lines()) == [
            f"step={step} {line}" for step, r in enumerate(trace.records, trace.first_step)
            if r.body for line in r.body.split("\n")]


class TestRootHoldingsAtTheWrap:
    """The root's holdings on its wrap channel are counted in the traversal
    that ends there, once: no mint, no reset."""

    def wrap_config(self, sim):
        # 3-star, ell = 1: the root is in its critical section with the only
        # unit, reserved on its wrap channel 1; the controller is about to
        # arrive on channel 1; the priority token and the pusher have crossed
        # the wrap since the last one
        cfg = sim.empty_configuration()
        root = cfg.states["r"]
        root.succ, root.state, root.need = 1, IN, 1
        root.rset = [Reserved(1)]
        root.sprio = root.spush = 1
        cfg.app.remaining["r"] = 5
        cfg.channels[("a", 0)].extend([PrioT(), PushT()])
        cfg.channels[("r", 1)].append(Ctrl(0, False, 0, 0))
        sim.stamp_uids(cfg)
        return cfg

    def test_wrap_counts_the_held_unit_once(self):
        sim = make_sim(k=1, ell=1, cmax=1, timeout=None)
        trace = sim.run(self.wrap_config(sim), ReplayPolicy([STAR.ring.slot["r"][1]]), 1)
        rec = trace.records[0]
        te = rec.traversal_end
        assert te.res_total == 1 and not te.new_reset
        assert list(trace.lines()) == [
            "step=0 proc=r event=deliver msg=Ctrl{c=0,r=0,pt=0,ppr=0} "
            "ch=1 sends=[0:Ctrl{c=1,r=0,pt=0,ppr=0}]"]
        assert rec.census.res_tokens == 1
        assert trace.initial_legit and rec.legit

    def test_no_mint_or_reset_follows(self):
        sim = make_sim(k=1, ell=1, cmax=1, timeout=None)
        trace = sim.run(self.wrap_config(sim), RoundRobinPolicy(), 200)
        ends = [rec.traversal_end for rec in trace.records if rec.traversal_end]
        assert len(ends) > 5
        assert all(te.res_total == 1 and not te.new_reset for te in ends)
        assert all(rec.legit for rec in trace.records)



class TestApplicationChoices:
    """A state search over ``Simulator.step`` makes two application choices,
    and neither needs an engine change.  On the 3-star, k = 1, ell = 2,
    C_MAX = 1, no timeout, from the canonical start, with every process
    requesting one unit for an ``inf`` (pinned) section, 300 seeded walks of
    20 steps, each step an enabled delivery or the end of a pinned section,
    reach about 1,100 distinct configurations, and at each:

    - two enabled deliveries at distinct receivers commute: either order
      reaches the same ``fingerprint``;
    - setting one pinned section's countdown to 1 before an idle step ends
      exactly that section: every other process and section is as the same
      idle step leaves it without the end."""

    @staticmethod
    def end(cfg, pid):
        """``cfg`` with ``pid``'s pinned section due to end in the next step."""
        cfg = cfg.clone()
        cfg.app.remaining[pid] = 1
        return cfg

    @pytest.fixture(scope="class")
    def reached(self):
        sim = make_sim(k=1, ell=2, cmax=1, timeout=None)
        wl = RepeatingWorkload({pid: (1, float("inf")) for pid in STAR.process_ids}, k=1)
        seen = {}
        for seed in range(300):
            rng = random.Random(seed)
            cfg = sim.initial_configuration()
            for _ in range(20):
                seen.setdefault(cfg.fingerprint(), cfg)
                t = rng.choice(sim.enabled_events(cfg) + sorted(cfg.app.remaining))
                if isinstance(t, str):
                    cfg, t = self.end(cfg, t), None
                cfg = sim.step(cfg, t, wl)
        return sim, wl, list(seen.values())

    def test_deliveries_at_distinct_receivers_commute(self, reached):
        sim, wl, configs = reached
        pairs = 0
        for cfg in configs:
            enabled = sim.enabled_events(cfg)
            for i, t in enumerate(enabled):
                for u in enabled[i + 1:]:
                    if sim.channel_keys[t][0] == sim.channel_keys[u][0]:
                        continue
                    pairs += 1
                    tu = sim.step(sim.step(cfg, t, wl), u, wl)
                    ut = sim.step(sim.step(cfg, u, wl), t, wl)
                    assert tu.fingerprint() == ut.fingerprint()
        assert pairs >= 1000

    def test_a_countdown_set_to_one_ends_only_its_section(self, reached):
        sim, wl, configs = reached
        ends = 0
        for cfg in configs:
            for pid, left in cfg.app.remaining.items():
                assert left == float("inf") and cfg.states[pid].state == IN
                ends += 1
                nxt = sim.step(self.end(cfg, pid), None, wl)
                idle = sim.step(cfg, None, wl)
                assert nxt.states[pid].state == OUT and not nxt.states[pid].rset
                del nxt.states[pid], idle.states[pid], idle.app.remaining[pid]
                assert nxt.states == idle.states
                assert nxt.app.remaining == idle.app.remaining
        assert ends >= 500
