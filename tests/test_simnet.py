import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klexsim import scenarios
from klexsim.appmodel import RandomWorkload, Workload, WorkloadEvent
from klexsim.monitor import stabilization_time
from klexsim.protocol import IN, OUT, REQ, Ctrl, PrioT, PushT, Reserved, ResT
from klexsim.simnet import (
    DELIVER,
    SKIP,
    TIMEOUT,
    RandomPolicy,
    ReplayPolicy,
    RoundRobinPolicy,
    SchedulerError,
    SimParams,
    Simulator,
    default_timeout,
    format_replay,
    parse_replay,
    timeout_ready,
    traversal_allowance,
)
from klexsim.topology import parse_topology, random_tree

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
        nxt = sim.step(cfg, (DELIVER, "a", 0))
        assert len(cfg.channels[("a", 0)]) == 6
        assert len(nxt.channels[("a", 0)]) == 5
        assert nxt.step == cfg.step + 1

    def test_delivery_moves_token_into_rset(self):
        sim = make_sim()
        cfg = sim.empty_configuration()
        cfg.states["a"].state = REQ
        cfg.states["a"].need = 1
        cfg.channels[("a", 0)].append(ResT(uid=9))
        nxt = sim.step(cfg, (DELIVER, "a", 0))
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
        nxt = sim.step(cfg, (DELIVER, "r", 1))
        q = nxt.channels[("a", 0)]
        assert [type(m).__name__ for m in q] == ["PrioT", "ResT", "ResT", "PushT", "Ctrl"]
        rep = sim.check(nxt)[0]
        assert rep.species() == (2, 1, 1)

    def test_delivery_from_empty_channel_is_structural_error(self):
        sim = make_sim()
        cfg = sim.empty_configuration()
        with pytest.raises(SchedulerError):
            sim.step(cfg, (DELIVER, "a", 0))

    def test_entry_starts_armed_or_default_section(self):
        sim = make_sim(timeout=None)
        cfg = sim.empty_configuration()
        for pid in ("a", "b"):
            cfg.states[pid].state = REQ
            cfg.states[pid].need = 1
            cfg.states[pid].rset = [Reserved(0)]
        cfg.app.armed_duration["a"] = 4
        sim.stamp_uids(cfg)
        nxt = sim.step(cfg, (SKIP,))
        assert nxt.states["a"].state == nxt.states["b"].state == IN
        assert nxt.app.remaining == {"a": 4, "b": 1}
        assert nxt.app.armed_duration == {}

    def test_fifo_order_preserved(self):
        sim = make_sim()
        cfg = sim.empty_configuration()
        cfg.channels[("a", 0)].extend([ResT(uid=1), ResT(uid=2), ResT(uid=3)])
        nxt = sim.step(cfg, (DELIVER, "a", 0))
        assert [m.uid for m in nxt.channels[("a", 0)]] == [2, 3]
        # forwarded token went to a -> r
        assert [m.uid for m in nxt.channels[("r", 0)]] == [1]


class TestTimeout:
    def test_fires_after_threshold_of_silence(self):
        sim = make_sim(timeout=5)
        cfg = sim.empty_configuration()
        trace = sim.run(cfg, RoundRobinPolicy(), 6)
        fired = [rec.step for rec in trace.records if rec.timeout_fired]
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
        nxt = sim.step(cfg, (DELIVER, "r", 0))
        assert nxt.timer == 0

    def test_invalid_ctrl_does_not_restart_timer(self):
        sim = make_sim(timeout=60)
        cfg = sim.empty_configuration()
        cfg.timer = 5
        cfg.states["r"].succ = 0
        cfg.channels[("r", 0)].append(Ctrl(3, False, 0, 0))  # stale counter
        nxt = sim.step(cfg, (DELIVER, "r", 0))
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
            assert t1.text() == t2.text()

    def test_different_seeds_differ(self):
        sim = make_sim()
        c1, c2 = sim.inject_arbitrary(1), sim.inject_arbitrary(2)
        assert c1.fingerprint(STAR.process_ids) != c2.fingerprint(STAR.process_ids)

    def test_zero_budget_returns_initial(self):
        sim = make_sim()
        cfg = sim.initial_configuration()
        trace = sim.run(cfg, RoundRobinPolicy(), 0)
        assert trace.records == []
        assert trace.final.fingerprint(STAR.process_ids) == cfg.fingerprint(STAR.process_ids)


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
        for rec in trace.records:
            for line in rec.lines:
                if "event=deliver" in line:
                    proc = line.split("proc=")[1].split()[0]
                    steps_by_proc[proc].append(rec.step)
        for pid, steps in steps_by_proc.items():
            assert steps, f"{pid} never scheduled"
            gaps = [b - a for a, b in zip(steps, steps[1:])]
            assert max(gaps) <= window, f"{pid} starved for {max(gaps)} steps"

    def test_replay_roundtrip_and_validation(self):
        choices = [(DELIVER, "a", 0), (SKIP,), (TIMEOUT,)]
        assert parse_replay(format_replay(choices)) == choices
        for bad in ("deliver a", "deliver a x", "deliver a -1", "timeout 3", "fly"):
            with pytest.raises(SchedulerError, match="replay line 2: "):
                parse_replay("skip\n" + bad + "\n")

    def test_replay_disabled_event_is_error(self):
        sim = make_sim()
        cfg = sim.empty_configuration()
        with pytest.raises(SchedulerError):
            sim.run(cfg, ReplayPolicy([(DELIVER, "a", 0)]), 5)

    def test_replay_exhaustion_ends_run(self):
        sim = make_sim()
        cfg = sim.initial_configuration()
        trace = sim.run(cfg, ReplayPolicy([(DELIVER, "a", 0), (SKIP,)]), 10)
        assert trace.ended == "replay-exhausted"
        assert len(trace.records) == 2


class TestWorkloadIntegration:
    def test_request_satisfied_in_idle_system(self):
        sim = make_sim(timeout=None)
        cfg = sim.initial_configuration()
        wl = Workload([WorkloadEvent(2, "b", 2, 3)], k=2)
        trace = sim.run(cfg, RoundRobinPolicy(), 200, workload=wl)
        entered = [rec.step for rec in trace.records if "b" in rec.entries]
        assert entered, "request never satisfied"
        # satisfied within one ring circulation's worth of deliveries
        assert entered[0] <= 2 + 4 * (3 + 3)
        # and the critical section ends after its three-step duration
        exits = [rec.step for rec in trace.records
                 for (pid, a, b) in rec.transitions if pid == "b" and b == OUT]
        assert exits and exits[0] == entered[0] + 3

    def test_cs_duration_one(self):
        sim = make_sim(timeout=None)
        cfg = sim.initial_configuration()
        wl = Workload([WorkloadEvent(0, "a", 1, 1)], k=2)
        trace = sim.run(cfg, RoundRobinPolicy(), 100, workload=wl)
        enter = next(r.step for r in trace.records if "a" in r.entries)
        exit_ = next(r.step for r in trace.records
                     for (pid, a, b) in r.transitions if pid == "a" and b == OUT)
        assert exit_ == enter + 1


class RecordingPolicy:
    """Delegates to ``inner`` and records every choice, idle steps as skip."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.choices = []

    def choose(self, enabled, slots):
        choice = self.inner.choose(enabled, slots)
        self.choices.append((SKIP,) if choice is None else choice)
        return choice


class TestWokenOnlySweep:
    """``run`` passes only over processes whose inputs changed; a ``sim.step``
    chain passes over every process each step.  Driven by the same choices
    from an arbitrary start, both must produce the same configurations."""

    def assert_equivalent(self, sim, cfg0, make_workload, seed, steps=300):
        order = sim.topo.process_ids
        policy = RecordingPolicy(RandomPolicy(seed))
        from_run = []
        trace = sim.run(cfg0, policy, steps, workload=make_workload(),
                        observer=lambda cfg, rec: from_run.append(
                            (cfg.fingerprint(order), cfg.timer, sorted(rec.entries))))
        assert len(from_run) == steps
        cfg, workload, from_step = cfg0, make_workload(), []
        for choice in policy.choices:
            nxt = sim.step(cfg, choice, workload)
            entered = sorted(pid for pid in order if nxt.states[pid].state == IN
                             and cfg.states[pid].state != IN)
            from_step.append((nxt.fingerprint(order), nxt.timer, entered))
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


def scan_enabled(sim, cfg):
    """``enabled_events`` by looking at every channel, as the index must give."""
    enabled = [(DELIVER, pid, ch) for pid, ch in sim.channel_keys if cfg.channels[(pid, ch)]]
    if timeout_ready(cfg, sim.params.timeout):
        enabled.append((TIMEOUT,))
    return enabled


def run_checked(sim, cfg0, policy, budget, workload=None):
    """Run with an observer that holds the checks ``run`` tallies at every
    step to ``sim.check`` from scratch, and the indexed ``enabled_events``
    to a scan of every channel."""
    def observe(cfg, rec):
        assert (rec.census, rec.legit, rec.violations) == sim.check(cfg), rec.step
        assert sim.enabled_events(cfg) == scan_enabled(sim, cfg), rec.step

    trace = sim.run(cfg0, policy, budget, workload=workload, observer=observe)
    assert (trace.initial_census, trace.initial_legit,
            trace.initial_violations) == sim.check(cfg0)
    return trace


def canonical_sim(topo, ell=3, k=2):
    return Simulator(topo, SimParams(k=k, ell=ell, cmax=1,
                                     timeout=default_timeout(topo, ell, 1)))


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
        mid.channels[("a", 0)].appendleft(Ctrl(mid.states["a"].myc, False, 0, 0))
        assert sim.check(mid)[0].ctrl_tokens == 1
        trace = run_checked(sim, mid, ReplayPolicy([(DELIVER, "a", 0)]), 1)
        assert trace.records[0].lines[0].endswith("sends=[0:Ctrl{c=%d,r=0,pt=0,ppr=0}]"
                                                  % mid.states["a"].myc)
        run_checked(sim, mid, RoundRobinPolicy(), 400)


class TestStepRecordFootprint:
    """A record is built once, slotted, with tuple event fields, so a long
    trace holds few objects the garbage collector has to walk."""

    def test_slotted_with_tuple_fields(self):
        sim = make_sim()
        workload = Workload([WorkloadEvent(0, "a", 1, 2)], 2)
        trace = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 30, workload)
        for rec in trace.records:
            assert not hasattr(rec, "__dict__")
            for name in ("lines", "entries", "requests", "transitions"):
                assert type(getattr(rec, name)) is tuple, name
            assert type(rec.violations) is list
        assert any(rec.entries for rec in trace.records)

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
        assert per_step <= 2.1


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
        trace = sim.run(self.wrap_config(sim), ReplayPolicy([(DELIVER, "r", 1)]), 1)
        rec = trace.records[0]
        te = rec.traversal_end
        assert te.res_total == 1 and not te.new_reset
        assert rec.lines == ("step=0 proc=r event=deliver msg=Ctrl{c=0,r=0,pt=0,ppr=0} "
                             "ch=1 sends=[0:Ctrl{c=1,r=0,pt=0,ppr=0}]",)
        assert rec.census.res_tokens == 1
        assert trace.initial_legit and rec.legit

    def test_no_mint_or_reset_follows(self):
        sim = make_sim(k=1, ell=1, cmax=1, timeout=None)
        trace = sim.run(self.wrap_config(sim), RoundRobinPolicy(), 200)
        ends = [rec.traversal_end for rec in trace.records if rec.traversal_end]
        assert len(ends) > 5
        assert all(te.res_total == 1 and not te.new_reset for te in ends)
        assert all(rec.legit for rec in trace.records)
