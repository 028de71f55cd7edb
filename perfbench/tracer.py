"""Layer tracing for the klexsim benchmark, installed from outside the library.

``Tracer.install`` replaces the public functions of each layer with timing
wrappers and restores the originals on ``uninstall``.  Wrapping happens where
the callers look the name up: ``klexsim.simnet`` imports ``dispatch``,
``local_actions``, ``on_timeout_root`` and ``apply_workload`` by name, so
those are wrapped as ``klexsim.simnet.<name>``; ``monitor.step_checks`` is a
module attribute; scheduler, policy, workload and critical-section methods are
wrapped on their classes.

Spans nest on a stack.  Each span name keeps its call count, total time and
self time (total minus the time its wrapped children cover), aggregated per
(name, parent) edge, so a traced run keeps a bounded amount of data in memory
however many steps it makes.  A call made inside a span of the same name
(``check_fairness`` calling ``collect_requests``) belongs to the outer span.  Counters are updated at the same boundaries from the arguments
and results the wrapped calls see.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from klexsim import appmodel, monitor, protocol, simnet, topology

VERDICTS = (
    "stabilization_time",
    "closure_regressions",
    "check_safety",
    "check_fairness",
    "collect_requests",
    "traversal_observations",
    "waiting_time_bound",
)

SPECIES = {
    protocol.ResT: "res",
    protocol.PushT: "push",
    protocol.PrioT: "prio",
    protocol.Ctrl: "ctrl",
}


class Tracer:
    """Timing spans and event counters for one traced pass."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()  # (name, parent) -> calls
        self.edge_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.runs: list[dict] = []  # one full span per top-level campaign run
        self._stack: list[list] = []  # [name, child seconds]
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, fn, after=None, before=None):
        """Wrap ``fn`` in a span called ``name``.  ``before(args)`` returns a
        token handed to ``after(args, result, token)`` for counting."""
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1][0] if stack else "-"
                if stack:
                    stack[-1][1] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[1]
                self.edges[(name, parent)] += 1
                self.edge_time[(name, parent)] += dt
            if after is not None:
                after(args, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def record_run(self, label: str, start: float, end: float, steps: int) -> None:
        self.runs.append({"run": label, "start": start, "end": end, "steps": steps})

    # -- counters -------------------------------------------------------------

    def _after_dispatch(self, args, out, _token) -> None:
        c = self.counts
        msg = args[2]
        species = SPECIES[type(msg)]
        c[f"deliveries.{species}"] += 1
        if species == "ctrl" and not out.sends:
            c["ctrl_dropped"] += 1
        te = out.traversal_end
        if te is not None:
            c["wraps"] += 1
            c["resets"] += te.new_reset
            c["mints"] += len(out.sends) - 1  # every send but the relaunched Ctrl

    def _before_local(self, args):
        return args[0].state

    def _after_local(self, args, out, old_state) -> None:
        c = self.counts
        c["cs_entries"] += out.entered_cs
        if out.sends or out.entered_cs or args[0].state != old_state:
            c["local_actions.useful"] += 1

    def _after_timeout(self, _args, _out, _token) -> None:
        self.counts["timeouts"] += 1

    def _after_enabled(self, args, enabled, _token) -> None:
        self.counts["enabled"] += len(enabled)
        self.counts["channels_scanned"] += len(args[0].channel_keys)

    def _after_step_checks(self, _args, result, _token) -> None:
        _census, legit, violations = result
        self.counts["legit"] += legit
        self.counts["violation_steps"] += bool(violations)

    def _after_due(self, _args, due, _token) -> None:
        self.counts["requests"] += len(due)

    def _after_run(self, _args, trace, _token) -> None:
        self.counts["steps"] += len(trace.records)

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, **hooks) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, **hooks))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        p = self._patch
        p(topology, "random_tree", "topology")
        p(topology, "virtual_ring", "topology")
        p(monitor, "virtual_ring", "topology")
        p(simnet, "dispatch", "protocol.dispatch", after=self._after_dispatch)
        p(simnet, "local_actions", "protocol.local_actions",
          before=self._before_local, after=self._after_local)
        p(simnet, "on_timeout_root", "protocol.on_timeout_root", after=self._after_timeout)
        p(simnet, "apply_workload", "appmodel.apply_workload")
        p(appmodel.RandomWorkload, "due", "appmodel.due", after=self._after_due)
        p(appmodel.AppState, "tick", "appmodel.tick")
        p(simnet.Simulator, "__init__", "simnet.setup")
        p(simnet.Simulator, "inject_arbitrary", "simnet.setup")
        p(simnet.Simulator, "initial_configuration", "simnet.setup")
        p(simnet.Configuration, "clone", "simnet.setup")
        p(simnet.Simulator, "run", "simnet.run", after=self._after_run)
        p(simnet.Simulator, "enabled_events", "simnet.enabled_events",
          after=self._after_enabled)
        p(simnet.RoundRobinPolicy, "choose", "simnet.choose")
        p(simnet.RandomPolicy, "choose", "simnet.choose")
        p(monitor, "step_checks", "monitor.step_checks", after=self._after_step_checks)
        for fn in VERDICTS:
            p(monitor, fn, "monitor.verdicts")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- report ---------------------------------------------------------------

    def dump(self) -> dict:
        """Everything recorded, for the report file written at the end."""
        return {
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total[name],
                    "self_s": self.self_time[name],
                }
                for name in sorted(self.calls)
            },
            "edges": [
                {"span": name, "parent": parent, "calls": calls,
                 "total_s": self.edge_time[(name, parent)]}
                for (name, parent), calls in sorted(self.edges.items())
            ],
            "counts": dict(sorted(self.counts.items())),
            "runs": self.runs,
        }
