from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from klexsim import simnet
from klexsim.appmodel import RandomWorkload
from klexsim.cli import INCONCLUSIVE, VIOLATION, judge
from klexsim.monitor import (
    CensusReport,
    LivenessScenario,
    LivenessVerdict,
    check_fairness,
    check_kl_liveness,
    check_safety,
    closure_regressions,
    collect_requests,
    render_report,
    stabilization_time,
    traversal_observations,
    waiting_time_bound,
)
from klexsim.protocol import IN, OUT, REQ, Ctrl, PrioT, PushT, Reserved, ResT, TraversalEnd
from klexsim.simnet import (
    RandomPolicy,
    ReplayPolicy,
    RoundRobinPolicy,
    SimParams,
    Simulator,
    default_timeout,
    traversal_allowance,
)
from klexsim.topology import parse_topology, random_tree, virtual_ring

STAR = parse_topology("n 3 root r\nr: a b\na: r\nb: r\n")
CHAIN5 = parse_topology(
    "n 5 root r\nr: a\na: r b\nb: a c\nc: b d\nd: c\n"
)


# root of degree 2, an inner process of degree 3, three leaves
TREE5 = parse_topology("n 5 root r\nr: a b\na: r c d\nb: r\nc: a\nd: a\n")


def make_sim(topo=STAR, k=2, ell=3, cmax=2, timeout=500):
    return Simulator(topo, SimParams(k=k, ell=ell, cmax=cmax, timeout=timeout))


def recount(cfg, topo):
    """Independent census: a second, separately written counting pass."""
    tokens = {"ResT": 0, "PrioT": 0, "PushT": 0}
    valid_ctrl = 0
    for key in sorted(cfg.channels):
        receiver, label = key
        for msg in list(cfg.channels[key]):
            name = type(msg).__name__
            if name in tokens:
                tokens[name] += 1
            else:
                st = cfg.states[receiver]
                from_succ = label == st.succ and msg.c == st.myc
                fresh_from_parent = (
                    receiver != topo.root and label == 0 and msg.c != st.myc
                )
                if from_succ or fresh_from_parent:
                    valid_ctrl += 1
    held_res = sum(len(cfg.states[p].rset) for p in topo.process_ids)
    held_prio = sum(1 for p in topo.process_ids if cfg.states[p].prio is not None)
    return (
        tokens["ResT"] + held_res,
        tokens["PrioT"] + held_prio,
        tokens["PushT"],
        valid_ctrl,
    )


class TestCensus:
    def test_empty_configuration(self):
        sim = make_sim()
        rep = sim.check(sim.empty_configuration())[0]
        assert (rep.res_tokens, rep.prio_tokens, rep.push_tokens, rep.ctrl_tokens) == (0, 0, 0, 0)

    def test_all_tokens_reserved_counts_as_held(self):
        # the deadlock shape: every token reserved, none free
        sim = Simulator(CHAIN5, SimParams(k=3, ell=5, cmax=3, timeout=None))
        cfg = sim.empty_configuration()
        cfg.states["a"].rset = [Reserved(0, 0), Reserved(0, 1)]
        cfg.states["b"].rset = [Reserved(0, 2)]
        cfg.states["c"].rset = [Reserved(0, 3)]
        cfg.states["d"].rset = [Reserved(0, 4)]
        rep = sim.check(cfg)[0]
        assert rep.res_tokens == 5
        free = sum(1 for key in sim.channel_keys for m in cfg.channels[key]
                   if isinstance(m, ResT))
        assert free == 0

    def test_matches_independent_recount_on_injected_configs(self):
        for seed in range(60):
            topo = random_tree(seed, 2 + seed % 8)
            sim = Simulator(topo, SimParams(k=2, ell=4, cmax=3, timeout=None))
            cfg = sim.inject_arbitrary(seed)
            rep = sim.check(cfg)[0]
            assert (rep.res_tokens, rep.prio_tokens, rep.push_tokens,
                    rep.ctrl_tokens) == recount(cfg, topo)


def legit_configurations(sim, steps=400):
    """Every legitimate configuration of a canonical run, with the channel
    holding its controller and the non-root processes the controller has
    visited in its current traversal (a channel at ring position 1..t-1,
    where t is the controller's position and the wrap channel counts as the
    last)."""
    ring = virtual_ring(sim.topo)
    out = []

    def keep(cfg, rec):
        if rec.legit:
            (ckey,) = [key for key, q in cfg.channels.items()
                       if any(isinstance(m, Ctrl) for m in q)]
            t = ring.index(ckey) or len(ring)
            visited = {p for p, _ in ring[1:t]} - {sim.topo.root}
            out.append((cfg.clone(), ckey, visited))

    sim.run(sim.initial_configuration(), RoundRobinPolicy(), steps, observer=keep)
    return out


def ctrl_at(cfg, ckey):
    q = cfg.channels[ckey]
    return q, next(i for i, m in enumerate(q) if isinstance(m, Ctrl))


def token_ahead_moved_behind(sim, cfg, ckey, visited):
    q, i = ctrl_at(cfg, ckey)
    if i == 0:
        return False
    tok = q[i - 1]
    del q[i - 1]
    q.insert(i, tok)
    return True


def unvisited_adopts_counter(sim, cfg, ckey, visited):
    q, i = ctrl_at(cfg, ckey)
    topo = sim.topo
    for p in topo.process_ids:
        if p not in visited and p not in (topo.root, ckey[0]):
            cfg.states[p].myc = q[i].c
            return True
    return False


def visited_succ_off_by_one(sim, cfg, ckey, visited):
    for p in sorted(visited - {ckey[0]}):
        if sim.topo.degree(p) > 1:
            st = cfg.states[p]
            st.succ = (st.succ + 1) % sim.topo.degree(p)
            return True
    return False


def root_succ_off_by_one(sim, cfg, ckey, visited):
    root = sim.topo.root
    if ckey[0] == root:
        return False
    st = cfg.states[root]
    st.succ = (st.succ + 1) % sim.topo.degree(root)
    return True


def ctrl_pt_off_by_one(sim, cfg, ckey, visited):
    q, i = ctrl_at(cfg, ckey)
    q[i] = replace(q[i], pt=q[i].pt + 1)
    return True


def visited_leaf_wrong_counter(sim, cfg, ckey, visited):
    for p in sorted(visited - {ckey[0]}):
        if sim.topo.degree(p) == 1:
            st = cfg.states[p]
            st.myc = (st.myc + 1) % sim.modulus
            return True
    return False


class TestLegitimacy:
    def test_canonical_configuration_is_legitimate(self):
        sim = make_sim()
        assert sim.check(sim.initial_configuration())[1]

    def test_two_pushers_not_legitimate(self):
        sim = make_sim()
        cfg = sim.initial_configuration()
        cfg.channels[("b", 0)].append(PushT())
        assert not sim.check(cfg)[1]

    def test_missing_resource_not_legitimate(self):
        sim = make_sim()
        cfg = sim.initial_configuration()
        for i, m in enumerate(cfg.channels[("a", 0)]):
            if isinstance(m, ResT):
                del cfg.channels[("a", 0)][i]
                break
        assert not sim.check(cfg)[1]

    def test_reset_in_progress_not_legitimate(self):
        sim = make_sim()
        cfg = sim.initial_configuration()
        cfg.states["r"].reset = True
        assert not sim.check(cfg)[1]

    def test_stale_second_ctrl_not_legitimate(self):
        sim = make_sim()
        cfg = sim.initial_configuration()
        cfg.channels[("r", 1)].append(Ctrl(7, False, 0, 0))
        assert not sim.check(cfg)[1]

    def test_inflated_root_counter_not_legitimate(self):
        # nominal census but SToken carries a stale count: the next wrap
        # would see ell+1 and reset, so this must not be legitimate
        sim = make_sim()
        cfg = sim.initial_configuration()
        cfg.states["r"].stoken = 1
        assert not sim.check(cfg)[1]

    # Legitimate mid-traversal configurations of a canonical run, each
    # mutated so that exactly one traversal clause breaks: the census and
    # the safety scan must not change, and legitimacy must be lost.
    @pytest.mark.parametrize("mutate", [
        token_ahead_moved_behind,
        unvisited_adopts_counter,
        visited_succ_off_by_one,
        root_succ_off_by_one,
        ctrl_pt_off_by_one,
        visited_leaf_wrong_counter,
    ], ids=lambda f: f.__name__)
    def test_single_clause_mutation_not_legitimate(self, mutate):
        sim = make_sim(TREE5)
        applied = 0
        for cfg, ckey, visited in legit_configurations(sim):
            census, legit, violations = sim.check(cfg)
            assert legit and not violations
            if not mutate(sim, cfg, ckey, visited):
                continue
            applied += 1
            assert sim.check(cfg) == (census, False, ())
        assert applied >= 10


class TestStabilization:
    def test_canonical_start_stabilizes_at_zero(self):
        sim = make_sim()
        trace = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 300)
        assert stabilization_time(trace) == 0
        assert closure_regressions(trace) == 0

    def test_excess_tokens_reset_then_stabilize(self):
        sim = make_sim()
        cfg = sim.initial_configuration()
        cfg.channels[("b", 0)].extend([ResT(uid=90), ResT(uid=91)])
        trace = sim.run(cfg, RoundRobinPolicy(), 600)
        stab = stabilization_time(trace)
        assert stab is not None and stab > 0
        obs = traversal_observations(trace)
        assert any(o.new_reset for o in obs), "excess must trigger a reset"
        # flush completion: census zero at the end of each clean reset tour
        for o in obs:
            if o.arriving_r and o.clean:
                assert o.census_before.species() == (0, 0, 0)

    def test_deficit_replenished_without_reset(self):
        sim = make_sim()
        cfg = sim.initial_configuration()
        q = cfg.channels[("a", 0)]
        # drop one resource token and the pusher
        for idx in sorted((i for i, m in enumerate(q)
                           if isinstance(m, (ResT, PushT))), reverse=True)[:2]:
            del q[idx]
        trace = sim.run(cfg, RoundRobinPolicy(), 600)
        stab = stabilization_time(trace)
        assert stab is not None
        assert not any(o.new_reset for o in traversal_observations(trace))

    def test_never_legitimate_reports_none(self):
        sim = make_sim(timeout=None)
        trace = sim.run(sim.empty_configuration(), RoundRobinPolicy(), 50)
        assert stabilization_time(trace) is None


class TestTraversalCounting:
    def test_counts_match_census_at_every_wrap(self):
        sim = make_sim()
        trace = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 2000)
        obs = traversal_observations(trace)
        assert len(obs) > 10
        for o in obs:
            assert not o.new_reset
            assert o.res_total == o.census_before.res_tokens == 3
            assert o.prio_total == o.census_before.prio_tokens == 1
            assert o.push_total == o.census_before.push_tokens == 1

    def test_clean_flag_requires_single_ctrl_history(self):
        sim = make_sim()
        trace = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 800)
        obs = traversal_observations(trace)
        assert all(o.clean for o in obs[1:])  # first tour has no observed start

    def test_clean_window_on_hand_built_trace(self):
        te = TraversalEnd(0, 0, 0, False, False)

        def rec(ctrl, wrap=False, timeout=False):
            return SimpleNamespace(census=CensusReport(0, 0, 0, ctrl),
                                   traversal_end=te if wrap else None, timeout_fired=timeout)

        trace = SimpleNamespace(initial_census=CensusReport(0, 0, 0, 0), records=[
            rec(1, wrap=True),  # 0: no window before the first wrap
            rec(1), rec(1, wrap=True),  # 2: one valid controller throughout
            rec(1, timeout=True), rec(1, wrap=True),  # 4: the timeout fired
            rec(1), rec(2), rec(1, wrap=True),  # 7: a second valid controller
            rec(0, wrap=True),  # 8: nothing between two wraps
            rec(1), rec(1, wrap=True),  # 10: the window opened with none valid
        ])
        obs = traversal_observations(trace)
        assert [(o.record_index, o.clean) for o in obs] == [
            (0, False), (2, True), (4, False), (7, False), (8, True), (10, False)]
        assert [o.census_before.ctrl_tokens for o in obs] == [0, 1, 1, 2, 1, 1]


class TestSafety:
    def test_hand_built_overuse_fails(self):
        sim = make_sim(k=1, ell=1)
        cfg = sim.empty_configuration()
        cfg.states["a"].state = IN
        cfg.states["a"].rset = [Reserved(0, 0), Reserved(0, 1)]  # k+1 units in CS
        trace = sim.run(cfg, RoundRobinPolicy(), 1)
        verdict = check_safety(trace, stabilization=0)
        assert not verdict.passed
        assert any("in CS" in v for v in verdict.post_stabilization)

    def test_prestabilization_violations_recorded_not_failed(self):
        sim = make_sim(k=1, ell=1, timeout=20)
        cfg = sim.empty_configuration()
        cfg.states["a"].state = IN
        cfg.states["a"].rset = [Reserved(0, 0), Reserved(0, 1)]
        cfg.app.remaining["a"] = 1
        trace = sim.run(cfg, RoundRobinPolicy(), 400)
        stab = stabilization_time(trace)
        assert stab is not None
        verdict = check_safety(trace, stab)
        assert verdict.passed
        assert verdict.pre_stabilization

    def test_clean_run_passes(self):
        sim = make_sim()
        trace = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 500)
        assert check_safety(trace).passed

    def test_state_change_by_a_handler_is_checked(self, monkeypatch):
        # a delivery handler that takes an idle process straight into its
        # critical section: the step must record Out->In, not only the
        # local pass's In->Out that follows
        dispatch = simnet.dispatch

        def forcing_dispatch(st, ch, msg, pp):
            out = dispatch(st, ch, msg, pp)
            if st.state == OUT:
                st.state = IN
            return out

        monkeypatch.setattr(simnet, "dispatch", forcing_dispatch)
        sim = make_sim()
        trace = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 20)
        assert [t[1:] for t in trace.records[0].transitions] == [(OUT, IN), (IN, OUT)]
        verdict = check_safety(trace)
        assert not verdict.passed
        assert any(f"forbidden transition {OUT}->{IN}" in v
                   for v in verdict.post_stabilization)


class TestFairnessChecker:
    def test_satisfied_requests_pass_with_waits(self):
        from klexsim.appmodel import Workload, WorkloadEvent

        sim = make_sim(timeout=None)
        wl = Workload([WorkloadEvent(0, "a", 1, 2), WorkloadEvent(1, "b", 2, 2)], k=2)
        trace = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 400, workload=wl)
        verdict = check_fairness(trace)
        assert verdict.passed and not verdict.inconclusive
        assert all(r.waiting is not None for r in verdict.requests)
        assert verdict.max_waiting <= waiting_time_bound(3, 3)

    def test_budget_exhaustion_is_inconclusive(self):
        from klexsim.appmodel import Workload, WorkloadEvent

        sim = make_sim(timeout=None)
        wl = Workload([WorkloadEvent(0, "a", 2, 5)], k=2)
        # 2 steps: request armed but tokens cannot have arrived yet
        trace = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 2, workload=wl)
        verdict = check_fairness(trace)
        assert not verdict.passed and verdict.inconclusive

    def test_request_pairing_on_hand_built_trace(self):
        def rec(requests, entries):
            return SimpleNamespace(requests=requests, entries=entries)

        trace = SimpleNamespace(initial_requests=[("a", 1)], first_step=0, records=[
            rec([("b", 1)], ["c", "b"]),  # step 0: b entered in its request's step
            rec([("c", 2)], ["d"]),  # step 1: d's entry is in c's request step
            rec([], ["b"]),  # step 2
            rec([("d", 1)], ["a", "c"]),  # step 3: c entry at 3, not its earlier one
            rec([], ["e"]),  # step 4
        ])
        got = [(r.process, r.step_requested, r.need, r.step_entered, r.waiting)
               for r in collect_requests(trace)]
        assert got == [
            ("a", -1, 1, 3, 5),  # initial request: c, b, d, b, c entered first
            ("b", 0, 1, 0, 0),
            ("c", 1, 2, 3, 2),  # b at 2 and a at 3, the entry's own step
            ("d", 3, 1, None, None),  # never satisfied
        ]

    def test_quiescent_starvation_is_failure(self):
        sim = make_sim(timeout=None)
        cfg = sim.empty_configuration()  # no tokens anywhere, none will come
        cfg.states["a"].state = REQ
        cfg.states["a"].need = 1
        trace = sim.run(cfg, RoundRobinPolicy(), 50)
        assert trace.ended == "quiescent"
        verdict = check_fairness(trace)
        assert not verdict.passed and not verdict.inconclusive


class TestKlLiveness:
    def test_empty_requesters_vacuously_pass(self):
        sim = make_sim()
        trace = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 10)
        scenario = LivenessScenario(pinned={"a": 2}, requesters={})
        assert check_kl_liveness(scenario, trace).passed

    def test_requester_bound_validated(self):
        with pytest.raises(ValueError, match="ell - alpha"):
            LivenessScenario(pinned={"a": 2}, requesters={"b": 2}).validate(ell=3)

    def test_pinned_scenario_satisfies_a_requester(self):
        from klexsim.appmodel import Workload, WorkloadEvent
        import math

        sim = make_sim(k=2, ell=3)
        wl = Workload([
            WorkloadEvent(0, "a", 2, math.inf),  # pinned forever with 2 units
            WorkloadEvent(30, "b", 1, 2),
        ], k=2)
        scenario = LivenessScenario(pinned={"a": 2}, requesters={"b": 1})
        scenario.validate(ell=3)
        trace = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 600, workload=wl)
        verdict = check_kl_liveness(scenario, trace)
        assert verdict.passed
        assert "b" in verdict.satisfied
        # the pinned process never leaves its critical section
        assert trace.final.states["a"].state == IN


    def test_no_requester_entering_fails(self):
        # inconclusive while the budget cut the run short, definite once the
        # run went quiescent with the requester still waiting
        scenario = LivenessScenario(pinned={}, requesters={"b": 1})
        trace = make_sim().run(make_sim().initial_configuration(), RoundRobinPolicy(), 5)
        assert trace.ended == "budget"
        assert check_kl_liveness(scenario, trace) == LivenessVerdict(False, True, [])
        sim = make_sim(timeout=None)
        cfg = sim.empty_configuration()
        cfg.states["b"].state, cfg.states["b"].need = REQ, 1
        trace = sim.run(cfg, RoundRobinPolicy(), 5)
        assert trace.ended == "quiescent"
        assert check_kl_liveness(scenario, trace) == LivenessVerdict(False, False, [])


@pytest.mark.pin
class TestConclusiveEndings:
    """Fairness and (k,l)-liveness are "eventually" claims, so a run that
    leaves them unmet refutes them only when nothing can ever happen again:
    fairness, liveness and ``judge`` call such a run definite exactly when it
    ended quiescent (``Trace.conclusive``), and inconclusive on any other
    ending."""

    SCENARIO = LivenessScenario(pinned={}, requesters={"b": 1})
    ENDINGS = ("budget", "quiescent", "stopped", "replay-exhausted")

    @staticmethod
    def run_until(ended):
        # b requests one unit and is still waiting when the run ends
        sim = make_sim(timeout=None if ended == "quiescent" else 500)
        cfg = sim.empty_configuration() if ended == "quiescent" else sim.initial_configuration()
        cfg.states["b"].state, cfg.states["b"].need = REQ, 1
        return sim.run(
            cfg,
            ReplayPolicy([]) if ended == "replay-exhausted" else RoundRobinPolicy(),
            2,
            stop=(lambda recs, c: True) if ended == "stopped" else None,
        )

    def test_conclusive_reads_only_quiescence(self):
        assert [self.run_until(ended).conclusive for ended in self.ENDINGS] == [
            False, True, False, False]

    @pytest.mark.parametrize("ended", ENDINGS)
    def test_only_quiescence_is_definite(self, ended):
        trace = self.run_until(ended)
        assert trace.ended == ended
        definite = ended == "quiescent"
        fairness = check_fairness(trace)
        assert [r.process for r in fairness.starvations] == ["b"]
        assert (fairness.passed, fairness.inconclusive) == (False, not definite)
        assert check_kl_liveness(self.SCENARIO, trace) == LivenessVerdict(False, not definite, [])
        assert judge(trace)[0] == (VIOLATION if definite else INCONCLUSIVE)

    def test_quiescent_run_that_never_stabilizes_is_a_violation(self):
        # no tokens and no timer: nothing can ever make the start legitimate
        sim = make_sim(timeout=None)
        trace = sim.run(sim.empty_configuration(), RoundRobinPolicy(), 50)
        assert trace.ended == "quiescent"
        status, stab, _, _, fairness = judge(trace)
        assert (status, stab, fairness.requests) == (VIOLATION, None, [])


class TestConservation:
    def test_census_conserved_between_wraps_without_reset(self):
        sim = make_sim()
        trace = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 1500)
        prev = trace.initial_census
        for rec in trace.records:
            if rec.traversal_end is None:
                assert rec.census.species() == prev.species()
            prev = rec.census

    def test_flush_monotonically_decreases_census(self):
        sim = make_sim()
        cfg = sim.initial_configuration()
        cfg.channels[("b", 0)].extend([ResT(), PushT()])
        sim.stamp_uids(cfg)
        trace = sim.run(cfg, RoundRobinPolicy(), 800)
        flushing = False
        prev = trace.initial_census
        for rec in trace.records:
            if flushing and rec.traversal_end is None:
                assert sum(rec.census.species()) <= sum(prev.species())
            if rec.traversal_end is not None:
                flushing = rec.traversal_end.new_reset
            prev = rec.census


class TestPusherCirculation:
    def test_every_process_pushed_in_every_window(self):
        # post-stabilization the unique pusher follows the ring forever, so
        # each process receives it at least once per bounded window
        sim = make_sim(timeout=None)
        trace = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 3000)
        push_steps = {pid: [] for pid in STAR.process_ids}
        for line in trace.lines():
            if "event=deliver msg=PushT" in line:
                step = int(line.split()[0][len("step="):])
                push_steps[line.split("proc=")[1].split()[0]].append(step)
        ring = 2 * (STAR.n - 1)
        window = 2 * ring * (3 + 4)  # ring length times maximal queueing
        for pid, steps in push_steps.items():
            assert steps, f"{pid} never received the pusher"
            gaps = [b - a for a, b in zip(steps, steps[1:])]
            assert max(gaps) <= window, f"{pid} went {max(gaps)} steps unpushed"


class TestReport:
    def test_render_mentions_key_facts(self):
        sim = make_sim()
        trace = sim.run(sim.initial_configuration(), RoundRobinPolicy(), 100)
        stab = stabilization_time(trace)
        text = render_report(trace, STAR, 3, stab, closure_regressions(trace),
                             check_safety(trace, stab), check_fairness(trace))
        assert "stabilization step: 0" in text
        assert "closure regressions: 0" in text
        assert "safety: pass" in text

    def test_post_stabilization_violations_listed(self):
        sim = make_sim(k=1, ell=1)
        cfg = sim.empty_configuration()
        cfg.states["a"].state = IN
        cfg.states["a"].rset = [Reserved(0, 0), Reserved(0, 1)]  # k+1 units in CS
        trace = sim.run(cfg, RoundRobinPolicy(), 1)
        safety = check_safety(trace, stabilization=0)
        text = render_report(trace, STAR, 1, 0, 0, safety, check_fairness(trace))
        assert "safety: FAIL (0 pre-stabilization violations recorded)" in text
        listed = [line for line in text.splitlines() if line.startswith("  violation: ")]
        assert listed == [f"  violation: {v}" for v in safety.post_stabilization]
        assert "  violation: a in CS with 2 > k units" in listed


def reference_legit(sim, cfg):
    """Legitimacy by the clauses of ``step_checks``' docstring, read off a
    plain walk of ``virtual_ring`` and every process: nothing is kept from
    one configuration to the next, and nothing of ``monitor.Tally`` is used."""
    topo, k, ell = sim.topo, sim.params.k, sim.params.ell
    ring = virtual_ring(topo)
    states = cfg.states
    root = states[topo.root]

    # census and safety
    tokens = {ResT: 0, PrioT: 0, PushT: 0}
    uids = []
    ctrls = []
    for t, key in enumerate(ring):
        for i, m in enumerate(cfg.channels[key]):
            if isinstance(m, Ctrl):
                ctrls.append((t, i, m))
            else:
                tokens[type(m)] += 1
                if isinstance(m, ResT):
                    uids.append(m.uid)
    in_use = 0
    for st in states.values():
        held = len(st.rset)
        tokens[ResT] += held
        tokens[PrioT] += st.prio is not None
        uids += [e.uid for e in st.rset]
        if st.state == IN:
            in_use += held
            if held > k:
                return False
        if not 0 <= st.myc < sim.modulus or held > k:
            return False
        if st.stoken > ell + 1 or st.spush > 2 or st.sprio > 2:
            return False
    if len(set(uids)) != len(uids) or in_use > ell:
        return False
    if (tokens[ResT], tokens[PrioT], tokens[PushT]) != (ell, 1, 1):
        return False

    # one valid control message, no reset
    if len(ctrls) != 1:
        return False
    t, i, cm = ctrls[0]
    pid, q = ring[t]
    st = states[pid]
    valid = (q == st.succ and cm.c == st.myc) or (
        pid != topo.root and q == 0 and cm.c != st.myc)
    if not valid or cm.r or root.reset:
        return False

    # canonical traversal state: the wrap channel is the controller's last
    # place, so the channels passed are those at ring positions 1 .. place-1
    passed = ring[1:t or len(ring)]
    visits = Counter(p for p, _ in passed)
    for pid in topo.process_ids:
        st = states[pid]
        if pid == topo.root or visits[pid]:
            if st.myc != cm.c or st.succ != visits[pid] % topo.degree(pid):
                return False
        elif st.myc == cm.c:
            return False

    # running counts: tokens in passed channels, behind the controller in
    # its own channel, and held on a passed channel
    passed_keys = set(passed)
    counted = {ResT: 0, PrioT: 0, PushT: 0}
    behind = list(cfg.channels[ring[t]])[i + 1:]
    for m in behind + [m for key in passed_keys for m in cfg.channels[key]]:
        counted[type(m)] += 1
    for pid in topo.process_ids:
        st = states[pid]
        counted[ResT] += sum(1 for e in st.rset if (pid, e.channel) in passed_keys)
        counted[PrioT] += st.prio is not None and (pid, st.prio) in passed_keys
    return (cm.pt + root.stoken, cm.ppr + root.sprio, root.spush) == (
        counted[ResT], counted[PrioT], counted[PushT])


@pytest.mark.pin
class TestLegitimacyReference:
    """``rec.legit``, which ``run`` counts from what each step touched,
    equals ``reference_legit`` at every configuration of seeded runs."""

    def check_run(self, sim, cfg0, policy, budget, workload=None):
        seen = []

        def observe(cfg, rec):
            assert rec.legit == reference_legit(sim, cfg), cfg.step - 1
            seen.append(rec.legit)

        trace = sim.run(cfg0, policy, budget, workload=workload, observer=observe)
        assert trace.initial_legit == reference_legit(sim, cfg0)
        return seen

    @pytest.mark.parametrize("seed", range(60))
    def test_arbitrary_start(self, seed):
        n, cmax, ell = 2 + seed % 9, seed % 4, 1 + seed % 4
        topo = random_tree(900 + seed, n)
        allowance = traversal_allowance(topo, ell, cmax)
        sim = Simulator(topo, SimParams(k=1 + seed % ell, ell=ell, cmax=cmax,
                                        timeout=3 * allowance))
        policy = RoundRobinPolicy() if seed % 2 else RandomPolicy(seed)
        self.check_run(sim, sim.inject_arbitrary(seed), policy, 10 * allowance)

    @pytest.mark.parametrize("seed", range(60))
    def test_canonical_start_with_requests(self, seed):
        topo = random_tree(9000 + seed, 2 + seed % 10)
        ell = 1 + seed % 3
        k = 1 + seed % ell
        allowance = traversal_allowance(topo, ell, 1)
        sim = Simulator(topo, SimParams(k=k, ell=ell, cmax=1,
                                        timeout=default_timeout(topo, ell, 1)))
        workload = RandomWorkload(topo.process_ids, k, seed, rate=0.08,
                                  last_step=8 * allowance)
        policy = RoundRobinPolicy() if seed % 2 else RandomPolicy(seed)
        seen = self.check_run(sim, sim.initial_configuration(), policy,
                              10 * allowance, workload)
        assert all(seen)
