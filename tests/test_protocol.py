import copy
import dataclasses
import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klexsim.protocol import (
    IN,
    OUT,
    REQ,
    Ctrl,
    HandlerOutput,
    PrioT,
    ProcessState,
    ProcParams,
    PushT,
    Reserved,
    ResT,
    _NO_ACTIONS,
    _release_all,
    counter_modulus,
    dispatch,
    handle_ctrl_nonroot,
    handle_ctrl_root,
    handle_prio_t,
    handle_push_t,
    handle_res_t,
    local_actions,
    on_timeout_root,
)
from klexsim.topology import forward_channel

M = counter_modulus(5, 2)  # big enough for the unit cases


def params(is_root=False, delta=2, ell=3, modulus=M):
    return ProcParams(is_root=is_root, delta=delta, ell=ell, counter_modulus=modulus)


def kinds(sends):
    return [(ch, type(m).__name__) for ch, m in sends]


class TestResT:
    def test_requester_reserves(self):
        st_ = ProcessState(state=REQ, need=2, rset=[Reserved(0)])
        out = handle_res_t(st_, 1, ResT(), params(delta=3))
        assert [e.channel for e in st_.rset] == [0, 1]
        assert out.sends == []

    def test_pass_through(self):
        st_ = ProcessState(state=OUT)
        out = handle_res_t(st_, 2, ResT(uid=7), params(delta=3))
        assert out.sends == [(0, ResT(uid=7))]
        assert st_.rset == []

    def test_root_reset_sinks_token(self):
        st_ = ProcessState(reset=True)
        out = dispatch(st_, 0, ResT(), params(is_root=True, delta=2))
        assert not out.sends
        assert st_.stoken == 0

    def test_root_saturation_fixpoint(self):
        ell = 3
        st_ = ProcessState(state=OUT, stoken=ell + 1)
        out = handle_res_t(st_, 1, ResT(), params(is_root=True, delta=2, ell=ell))
        assert st_.stoken == ell + 1
        assert out.sends == [(0, ResT())]

    def test_root_counts_ring_completion(self):
        st_ = ProcessState(state=OUT, stoken=0)
        handle_res_t(st_, 1, ResT(), params(is_root=True, delta=2))
        assert st_.stoken == 1
        st2 = ProcessState(state=OUT, stoken=0)
        handle_res_t(st2, 0, ResT(), params(is_root=True, delta=2))
        assert st2.stoken == 0  # only channel delta-1 completes a loop


class TestPushT:
    def test_release_all_then_forward(self):
        st_ = ProcessState(state=REQ, need=3, rset=[Reserved(0), Reserved(0)])
        out = handle_push_t(st_, 0, PushT(), params(delta=2))
        assert kinds(out.sends) == [(1, "ResT"), (1, "ResT"), (1, "PushT")]
        assert st_.rset == []

    def test_in_cs_keeps_tokens(self):
        st_ = ProcessState(state=IN, rset=[Reserved(0)])
        out = handle_push_t(st_, 1, PushT(), params(delta=2))
        assert kinds(out.sends) == [(0, "PushT")]
        assert len(st_.rset) == 1

    def test_priority_holder_keeps_tokens(self):
        st_ = ProcessState(state=REQ, need=3, rset=[Reserved(1)], prio=2)
        out = handle_push_t(st_, 0, PushT(), params(delta=3))
        assert kinds(out.sends) == [(1, "PushT")]
        assert len(st_.rset) == 1

    def test_enabled_requester_keeps_tokens(self):
        st_ = ProcessState(state=REQ, need=1, rset=[Reserved(0)])
        out = handle_push_t(st_, 0, PushT(), params(delta=2))
        assert kinds(out.sends) == [(1, "PushT")]
        assert len(st_.rset) == 1

    def test_root_counts_pusher_and_released_tokens(self):
        # released token came in on channel delta-1, so it restarts a loop
        st_ = ProcessState(state=OUT, rset=[Reserved(1)])
        out = handle_push_t(st_, 1, PushT(), params(is_root=True, delta=2))
        assert st_.stoken == 1
        assert st_.spush == 1
        assert kinds(out.sends) == [(0, "ResT"), (0, "PushT")]

    def test_root_reset_sinks_pusher(self):
        st_ = ProcessState(reset=True, rset=[Reserved(0)])
        out = dispatch(st_, 0, PushT(), params(is_root=True, delta=2))
        assert not out.sends
        assert len(st_.rset) == 1  # reset sink does not even release


class TestPrioT:
    def test_free_prio_is_held(self):
        st_ = ProcessState()
        out = handle_prio_t(st_, 1, PrioT(), params(delta=2))
        assert st_.prio == 1
        assert out.sends == []

    def test_held_prio_forwards_duplicate(self):
        st_ = ProcessState(prio=0)
        out = handle_prio_t(st_, 1, PrioT(), params(delta=2))
        assert out.sends == [(0, PrioT())]
        assert st_.prio == 0

    def test_root_reset_sinks_prio(self):
        st_ = ProcessState(reset=True)
        out = dispatch(st_, 0, PrioT(), params(is_root=True, delta=2))
        assert not out.sends
        assert st_.prio is None


@pytest.mark.pin
class TestCtrlRoot:
    def test_wrap_without_replenishment(self):
        # counts add up exactly: no reset, nothing minted, counter bumped
        st_ = ProcessState(myc=5, succ=1, stoken=1, sprio=0, spush=1)
        out = handle_ctrl_root(st_, 1, Ctrl(5, False, 2, 1), params(is_root=True, ell=3))
        assert st_.myc == 6
        assert st_.succ == 0
        assert not st_.reset
        assert (st_.stoken, st_.sprio, st_.spush) == (0, 0, 0)
        assert out.sends == [(0, Ctrl(6, False, 0, 0))]
        assert out.restart_timer
        te = out.traversal_end
        assert (te.res_total, te.prio_total, te.push_total) == (3, 1, 1)
        assert not te.new_reset

    def test_wrap_with_overflow_resets(self):
        st_ = ProcessState(myc=5, succ=1, stoken=1, sprio=0, spush=1,
                           rset=[Reserved(0)], prio=0)
        out = handle_ctrl_root(st_, 1, Ctrl(5, False, 3, 1), params(is_root=True, ell=3))
        assert st_.reset
        assert st_.rset == []
        assert st_.prio is None
        assert out.sends == [(0, Ctrl(6, True, 0, 0))]
        assert out.traversal_end.new_reset

    def test_stale_counter_ignored(self):
        st_ = ProcessState(myc=5, succ=1)
        before = copy.deepcopy(st_)
        out = handle_ctrl_root(st_, 1, Ctrl(4, False, 0, 0), params(is_root=True))
        assert out.sends == []
        assert not out.restart_timer
        assert st_ == before

    def test_wrong_channel_ignored(self):
        st_ = ProcessState(myc=5, succ=1)
        out = handle_ctrl_root(st_, 0, Ctrl(5, False, 0, 0), params(is_root=True))
        assert out.sends == []

    def test_wrap_with_deficit_replenishes(self):
        # empty network, ell=2: mint priority, two resources, pusher, then ctrl
        st_ = ProcessState(myc=5, succ=1)
        out = handle_ctrl_root(st_, 1, Ctrl(5, False, 0, 0), params(is_root=True, ell=2))
        assert kinds(out.sends) == [
            (0, "PrioT"), (0, "ResT"), (0, "ResT"), (0, "PushT"), (0, "Ctrl")]
        ctrl = out.sends[-1][1]
        assert ctrl == Ctrl(6, False, 0, 0)
        # census of minted tokens is exactly (ell, 1, 1)
        minted = [m for _, m in out.sends]
        assert sum(isinstance(m, ResT) for m in minted) == 2
        assert sum(isinstance(m, PrioT) for m in minted) == 1
        assert sum(isinstance(m, PushT) for m in minted) == 1

    def test_mid_traversal_accumulates_passed_tokens(self):
        # no wrap: PT picks up the multiplicity of the arrival channel
        st_ = ProcessState(myc=5, succ=0, rset=[Reserved(0), Reserved(0), Reserved(1)],
                           prio=0, state=REQ, need=3)
        out = handle_ctrl_root(st_, 0, Ctrl(5, False, 1, 0), params(is_root=True, delta=2, ell=3))
        assert st_.succ == 1
        assert out.sends == [(1, Ctrl(5, False, 3, 1))]

    def test_counter_wraps_modulo_domain(self):
        mod = counter_modulus(3, 1)
        st_ = ProcessState(myc=mod - 1, succ=1)
        handle_ctrl_root(st_, 1, Ctrl(mod - 1, False, 3, 1),
                         params(is_root=True, ell=3, modulus=mod))
        assert st_.myc == 0


@pytest.mark.pin
class TestCtrlNonRoot:
    def test_leaf_adopts_new_counter(self):
        st_ = ProcessState(myc=3, succ=0)
        out = handle_ctrl_nonroot(st_, 0, Ctrl(7, False, 0, 0), params(delta=1))
        assert st_.myc == 7
        assert st_.succ == 0  # min(1, delta-1) for a leaf
        assert out.sends == [(0, Ctrl(7, False, 0, 0))]

    def test_parent_duplicate_forwarded_without_adoption(self):
        st_ = ProcessState(myc=3, succ=2)
        out = handle_ctrl_nonroot(st_, 0, Ctrl(3, False, 1, 0), params(delta=3))
        assert st_.succ == 2
        assert st_.myc == 3
        assert out.sends == [(2, Ctrl(3, False, 1, 0))]

    def test_progression_with_reset_clears_before_counting(self):
        st_ = ProcessState(myc=4, succ=2, rset=[Reserved(1), Reserved(2)], prio=1)
        out = handle_ctrl_nonroot(st_, 2, Ctrl(4, True, 1, 0), params(delta=4))
        assert st_.succ == 3
        assert st_.rset == []
        assert st_.prio is None
        # PT gained nothing: RSet was flushed before the count
        assert out.sends == [(3, Ctrl(4, True, 1, 0))]

    def test_invalid_dropped(self):
        st_ = ProcessState(myc=4, succ=3)
        before = copy.deepcopy(st_)
        out = handle_ctrl_nonroot(st_, 1, Ctrl(9, False, 0, 0), params(delta=4))
        assert out.sends == []
        assert st_ == before

    def test_adoption_resets_descent(self):
        st_ = ProcessState(myc=3, succ=2, rset=[Reserved(0)])
        out = handle_ctrl_nonroot(st_, 0, Ctrl(8, False, 2, 1), params(delta=3))
        assert st_.myc == 8
        assert st_.succ == 1
        # token reserved from channel 0 is passed: PT increases
        assert out.sends == [(1, Ctrl(8, False, 3, 1))]

    def test_progression_counts_prio(self):
        st_ = ProcessState(myc=4, succ=1, prio=1, state=REQ, need=2)
        out = handle_ctrl_nonroot(st_, 1, Ctrl(4, False, 0, 1), params(delta=2))
        assert out.sends == [(0, Ctrl(4, False, 0, 2))]


def ctrl_case_table() -> str:
    """Both controller handlers over a grid of cases, as one sha256: root or
    not; degree 1-3; every arrival channel q and every Succ; the counter
    equal to ``myc`` or not; ``r``; a unit held from q or not (and one from
    every other channel); Prio at any channel or None; the counts at zero or
    at their caps; for the root, its counts and reset flag all clear or all
    set.  Each case adds its sends (channel, class, fields, and whether the
    message is ``msg`` itself), the resulting state, ``traversal_end`` and
    ``restart_timer``."""
    ell = 2
    h = hashlib.sha256()
    for is_root, delta in itertools.product((False, True), (1, 2, 3)):
        p = params(is_root=is_root, delta=delta, ell=ell)
        handler = handle_ctrl_root if is_root else handle_ctrl_nonroot
        roots = ((0, 0, 0, False), (1, 1, 1, True)) if is_root else ((0, 0, 0, False),)
        for q, succ, c, r, held, prio, counts, root in itertools.product(
                range(delta), range(delta), (3, 4), (False, True), (False, True),
                (None, *range(delta)), ((0, 0), (ell + 1, 2)), roots):
            rset = [Reserved(ch, 10 + ch) for ch in range(delta) if ch != q]
            rset += [Reserved(q, 9)] if held else []
            stoken, sprio, spush, reset = root
            st_ = ProcessState(myc=3, succ=succ, rset=rset, need=3, state=REQ, prio=prio,
                               stoken=stoken, sprio=sprio, spush=spush, reset=reset)
            msg = Ctrl(c, r, *counts)
            out = handler(st_, q, msg, p)
            sends = [(ch, m.__class__.__name__, dataclasses.astuple(m), m is msg)
                     for ch, m in out.sends]
            end = out.traversal_end and dataclasses.astuple(out.traversal_end)
            h.update(repr((is_root, delta, q, succ, c, r, held, prio, counts, root, sends,
                           dataclasses.astuple(st_), end, out.restart_timer)).encode())
    return h.hexdigest()


CTRL_TABLE_GOLDEN = "fdb16bdffd26fcee96707e5994dabfa3954878f6c217fba4ba7becbee3fd7776"


@pytest.mark.pin
def test_ctrl_case_table_is_pinned():
    # a refactor's oracle for the controller handlers, as the golden step
    # chain is for ``sim.step``
    assert ctrl_case_table() == CTRL_TABLE_GOLDEN


class TestLocalActions:
    def test_enter_cs(self):
        st_ = ProcessState(state=REQ, need=2, rset=[Reserved(0), Reserved(1)])
        out = local_actions(st_, params(delta=2), False)
        assert st_.state == IN
        assert out.entered_cs
        assert out.sends == []

    def test_release_path(self):
        st_ = ProcessState(state=IN, rset=[Reserved(0), Reserved(0)])
        out = local_actions(st_, params(delta=2), True)
        assert kinds(out.sends) == [(1, "ResT"), (1, "ResT")]
        assert st_.state == OUT and st_.rset == []

    def test_prio_forwarded_when_not_requesting(self):
        st_ = ProcessState(state=OUT, prio=1)
        out = local_actions(st_, params(delta=3), False)
        assert out.sends == [(2, PrioT())]
        assert st_.prio is None

    def test_prio_kept_while_request_unsatisfied(self):
        st_ = ProcessState(state=REQ, need=2, rset=[Reserved(0)], prio=0)
        out = local_actions(st_, params(delta=2), False)
        assert out.sends == ()
        assert st_.prio == 0

    def test_fresh_entry_not_released_same_pass(self):
        # cs_done is still True from the previous section when entry happens
        st_ = ProcessState(state=REQ, need=1, rset=[Reserved(0)])
        out = local_actions(st_, params(delta=2), True)
        assert st_.state == IN
        assert out.sends == []

    def test_root_counts_on_release_and_prio(self):
        st_ = ProcessState(state=IN, rset=[Reserved(1)], prio=1)
        out = local_actions(st_, params(is_root=True, delta=2), True)
        assert st_.stoken == 1 and st_.sprio == 1
        assert kinds(out.sends) == [(0, "ResT"), (0, "PrioT")]


def full_guard_local_actions(st_: ProcessState, p: ProcParams, cs_done: bool):
    """Reference local-action pass: every guard evaluated after the action
    before it; returns (sends, entered_cs)."""
    out = HandlerOutput()
    if st_.state == REQ and len(st_.rset) >= st_.need:
        st_.state = IN
        out.entered_cs = True
    elif st_.state == IN and cs_done:
        _release_all(st_, p, out)
        st_.state = OUT
    if st_.prio is not None and (st_.state != REQ or len(st_.rset) >= st_.need):
        if p.is_root and st_.prio == p.delta - 1:
            st_.sprio = min(st_.sprio + 1, 2)
        out.sends.append((forward_channel(st_.prio, p.delta), PrioT()))
        st_.prio = None
    return out.sends, out.entered_cs


@pytest.mark.pin
class TestLocalActionsNoOp:
    def test_matches_full_guard_evaluation(self):
        shared = local_actions(ProcessState(), params(delta=2), False)
        pristine = ((), False, False, None)
        no_ops = 0
        for state, prio, held, need, cs_done, is_root in itertools.product(
                (OUT, REQ, IN), (None, 0, 1), range(3), range(3), (False, True),
                (False, True)):
            rset = [Reserved(i % 2, i) for i in range(held)]
            st_ = ProcessState(state=state, prio=prio, rset=rset, need=need,
                               sprio=1 if is_root else 0)
            ref = copy.deepcopy(st_)
            p = params(is_root=is_root, delta=2)
            out = local_actions(st_, p, cs_done)
            assert (list(out.sends), out.entered_cs) == full_guard_local_actions(ref, p, cs_done)
            assert st_ == ref
            if out is shared:
                no_ops += 1
                assert not out.sends and not out.entered_cs
            assert (shared.sends, shared.entered_cs, shared.restart_timer,
                    shared.traversal_end) == pristine
        assert no_ops > 0


@pytest.mark.pin
@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.data())
def test_dispatch_routes_by_message_class(is_root, data):
    # a resetting root sinks every token but a controller, with the shared
    # no-op output and its state untouched
    handlers = {ResT: handle_res_t, PushT: handle_push_t, PrioT: handle_prio_t,
                Ctrl: handle_ctrl_root if is_root else handle_ctrl_nonroot}
    s = data.draw(arbitrary_state(is_root))
    msg = data.draw(arbitrary_message())
    q = data.draw(st.integers(0, DELTA - 1))
    p = ProcParams(is_root=is_root, delta=DELTA, ell=ELL, counter_modulus=MOD)
    ref = copy.deepcopy(s)
    if is_root and s.reset and not isinstance(msg, Ctrl):
        assert dispatch(s, q, msg, p) is _NO_ACTIONS
    else:
        assert dispatch(s, q, msg, p) == handlers[type(msg)](ref, q, msg, p)
    assert s == ref


@pytest.mark.pin
@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.data())
def test_dispatch_leaves_the_guards_of_a_settled_process(is_root, data):
    # the simulator's pass rule: after a pass, a handler writes neither
    # ``state`` nor ``need``, so when it leaves len(rset) and prio as they
    # were, every guard is as false as that pass left it.  A process in its
    # section has a running countdown there, so cs_done reads False for it
    s = data.draw(arbitrary_state(is_root))
    p = ProcParams(is_root=is_root, delta=DELTA, ell=ELL, counter_modulus=MOD)
    local_actions(s, p, data.draw(st.booleans()))
    msg = data.draw(arbitrary_message())
    q = data.draw(st.integers(0, DELTA - 1))
    state, need, held, prio = s.state, s.need, len(s.rset), s.prio
    dispatch(s, q, msg, p)
    assert (s.state, s.need) == (state, need)
    if (len(s.rset), s.prio) == (held, prio):
        cs_done = s.state != IN and data.draw(st.booleans())
        assert local_actions(s, p, cs_done) is _NO_ACTIONS


@pytest.mark.pin
class TestCtrlForwardedAsItself:
    """A non-root sends on the control message it received, the very object,
    exactly when it adds nothing to its counts: no held unit and not the
    priority token from the arrival channel."""

    @staticmethod
    def hop(**state):
        st_ = ProcessState(myc=4, succ=1, **state)
        msg = Ctrl(4, False, 1, 0)
        return msg, handle_ctrl_nonroot(st_, 1, msg, params(delta=3)).sends

    def test_unchanged_counts_send_the_message_itself(self):
        for state in ({}, {"rset": [Reserved(0), Reserved(2)]}, {"prio": 2}):
            msg, sends = self.hop(**state)
            assert sends == [(2, msg)] and sends[0][1] is msg

    def test_changed_counts_send_a_new_message(self):
        for state, counts in (({"rset": [Reserved(1)]}, (2, 0)), ({"prio": 1}, (1, 1))):
            msg, sends = self.hop(**state)
            (ch, sent), = sends
            assert ch == 2 and sent is not msg
            assert sent == Ctrl(4, False, *counts)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_identity_exactly_when_counts_unchanged(self, data):
        s = data.draw(arbitrary_state(False))
        msg = data.draw(arbitrary_message().filter(lambda m: isinstance(m, Ctrl)))
        q = data.draw(st.integers(0, DELTA - 1))
        p = ProcParams(is_root=False, delta=DELTA, ell=ELL, counter_modulus=MOD)
        for _, sent in handle_ctrl_nonroot(s, q, msg, p).sends:
            assert (sent is msg) == ((sent.pt, sent.ppr) == (msg.pt, msg.ppr))
            assert (sent.c, sent.r) == (msg.c, msg.r)


class TestTimeout:
    def test_retransmits_current_counter(self):
        st_ = ProcessState(myc=4, succ=1, reset=False)
        out = on_timeout_root(st_, params(is_root=True, delta=2))
        assert out.sends == [(1, Ctrl(4, False, 0, 0))]
        assert out.restart_timer

    def test_retransmits_reset_flag(self):
        st_ = ProcessState(myc=0, succ=0, reset=True)
        out = on_timeout_root(st_, params(is_root=True, delta=2))
        assert out.sends == [(0, Ctrl(0, True, 0, 0))]


# --------------------------------------------------------------------------
# Property tests: totality, saturation, conservation, priority shield
# --------------------------------------------------------------------------

DELTA = 3
K = 3
ELL = 4
MOD = counter_modulus(6, 2)


@st.composite
def arbitrary_state(draw, is_root: bool):
    rset = [Reserved(draw(st.integers(0, DELTA - 1)))
            for _ in range(draw(st.integers(0, K)))]
    s = ProcessState(
        myc=draw(st.integers(0, MOD - 1)),
        succ=draw(st.integers(0, DELTA - 1)),
        rset=rset,
        need=draw(st.integers(0, K)),
        state=draw(st.sampled_from([REQ, IN, OUT])),
        prio=draw(st.one_of(st.none(), st.integers(0, DELTA - 1))),
    )
    if is_root:
        s.stoken = draw(st.integers(0, ELL + 1))
        s.spush = draw(st.integers(0, 2))
        s.sprio = draw(st.integers(0, 2))
        s.reset = draw(st.booleans())
    return s


@st.composite
def arbitrary_message(draw):
    kind = draw(st.sampled_from(["res", "push", "prio", "ctrl"]))
    if kind == "res":
        return ResT()
    if kind == "push":
        return PushT()
    if kind == "prio":
        return PrioT()
    return Ctrl(
        c=draw(st.integers(0, MOD - 1)),
        r=draw(st.booleans()),
        pt=draw(st.integers(0, ELL + 1)),
        ppr=draw(st.integers(0, 2)),
    )


def res_count(st_: ProcessState, sends) -> int:
    return len(st_.rset) + sum(1 for _, m in sends if isinstance(m, ResT))


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.data())
def test_handlers_total_and_saturating(is_root, data):
    s = data.draw(arbitrary_state(is_root))
    msg = data.draw(arbitrary_message())
    q = data.draw(st.integers(0, DELTA - 1))
    p = ProcParams(is_root=is_root, delta=DELTA, ell=ELL, counter_modulus=MOD)
    out = dispatch(s, q, msg, p)
    assert s.stoken <= ELL + 1
    assert s.spush <= 2 and s.sprio <= 2
    assert len(s.rset) <= K
    assert 0 <= s.myc < MOD
    assert 0 <= s.succ < DELTA
    for ch, m in out.sends:
        assert 0 <= ch < DELTA
        if isinstance(m, Ctrl):
            assert m.pt <= ELL + 1 and m.ppr <= 2


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.data())
def test_resource_conservation(is_root, data):
    s = data.draw(arbitrary_state(is_root))
    if is_root:
        s.reset = False  # a resetting root deliberately consumes tokens
    msg = data.draw(st.sampled_from([ResT(), PushT()]))
    q = data.draw(st.integers(0, DELTA - 1))
    p = ProcParams(is_root=is_root, delta=DELTA, ell=ELL, counter_modulus=MOD)
    before = len(s.rset) + (1 if isinstance(msg, ResT) else 0)
    out = dispatch(s, q, msg, p)
    assert res_count(s, out.sends) == before


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.data())
def test_local_actions_conserve_resources(is_root, data):
    s = data.draw(arbitrary_state(is_root))
    release = data.draw(st.booleans())
    p = ProcParams(is_root=is_root, delta=DELTA, ell=ELL, counter_modulus=MOD)
    before = len(s.rset)
    out = local_actions(s, p, release)
    assert res_count(s, out.sends) == before


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_priority_shield(data):
    s = data.draw(arbitrary_state(False))
    s.state = REQ
    s.prio = data.draw(st.integers(0, DELTA - 1))
    s.need = len(s.rset) + 1  # strictly unsatisfied
    if s.need > K:
        s.rset.pop()
        s.need -= 1
    before = list(s.rset)
    q = data.draw(st.integers(0, DELTA - 1))
    p = ProcParams(is_root=False, delta=DELTA, ell=ELL, counter_modulus=MOD)
    handle_push_t(s, q, PushT(), p)
    assert s.rset == before
