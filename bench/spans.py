"""Span tracing of durastm's layers from outside the package.

A ``Tracer`` wraps public entry points of each module (the table ``SPANS``)
with functions that record one span per call: its duration, and
the time its child spans took, so that self time is the span minus its
children.  Generators get one span per resumption.  A few spans also look
at their arguments or result (the ``_see_*`` functions); that work is kept
out of every self time.

``install`` replaces every reference to a wrapped function that any
``durastm`` module holds (``from .opacity import durably_opaque`` binds a
second name), and ``restore`` puts every one of them back and checks that
no wrapper is left.  In between, spans are recorded only while ``enabled``
is set.
"""
from __future__ import annotations

import inspect
import sys
import time

# (module, attribute path, span name): the entry points the per-layer
# metrics need, from every module.  Functions not listed count as self time
# of the listed call above them.
_NVM_METHODS = (
    ("MemoryPair", ("initial", "read", "write", "flush", "crash_reset")),
    ("UndoLog", ("empty", "is_empty", "domain", "items", "contains_addr",
                 "lookup", "pinsert", "pdelete", "pempty")),
)
SPANS = tuple(
    ("durastm.nvm", f"{cls}.{m}", f"nvm.{cls}.{m}")
    for cls, methods in _NVM_METHODS for m in methods
) + (
    ("durastm.dtml", "DtmlMachine.enabled", "dtml.enabled"),
    ("durastm.dtml", "DtmlMachine.step", "dtml.step"),
    ("durastm.histories", "durably_well_formed", "histories.dwf"),
    ("durastm.histories", "enumerate_histories", "histories.enumerate"),
    ("durastm.histories", "completions", "histories.completions"),
    ("durastm.opacity", "end_to_end_opaque", "opacity.e2e"),
    ("durastm.opacity", "end_to_end_opaque_alt", "opacity.alt"),
    ("durastm.opacity", "durably_opaque", "opacity.durable"),
    ("durastm.dtms2", "Dtms2Machine.enabled", "dtms2.enabled"),
    ("durastm.dtms2", "Dtms2Machine.step", "dtms2.step"),
    ("durastm.dtms2", "dtms2_accepts", "dtms2.accepts"),
    ("durastm.dtms2", "dtms2_random_walk", "dtms2.walk"),
    ("durastm.dtms2", "_closure", "dtms2.closure"),
    ("durastm.dtms2", "_matching_actions", "dtms2.matching"),
    ("durastm.refinement", "sim_step", "refinement.sim_step"),
    ("durastm.refinement", "check_weak_sim", "refinement.weak_sim"),
    ("durastm.explorer", "explore_exhaustive", "explorer.exhaustive"),
    ("durastm.explorer", "explore_random", "explorer.random"),
    ("durastm.explorer", "walk_reference", "explorer.reference"),
    ("durastm.explorer", "canonical_hash", "explorer.canonical_hash"),
    ("durastm.explorer", "_advance_trace", "explorer.advance_trace"),
    ("durastm.cli", "main", "cli.main"),
)

# (name, unit) of every per-layer metric, in the order they are printed
PER_LAYER = (
    ("explorer.self_s", "s"),
    ("explorer.canonical_hash.calls", "count"),
    ("explorer.canonical_hash.s", "s"),
    ("explorer.dedup.distinct_ratio", "ratio"),
    ("explorer.advance_trace.calls", "count"),
    ("explorer.advance_trace.s", "s"),
    ("explorer.advance_trace.distinct_ratio", "ratio"),
    ("explorer.histories", "count"),
    ("explorer.states", "count"),
    ("dtml.step.calls", "count"),
    ("dtml.step.s", "s"),
    ("dtml.enabled.calls", "count"),
    ("dtml.enabled.s", "s"),
    ("nvm.calls", "count"),
    ("nvm.s", "s"),
    ("histories.dwf.calls", "count"),
    ("histories.dwf.s", "s"),
    ("histories.dwf.mean_events", "events"),
    ("histories.enumerate.yielded", "count"),
    ("histories.enumerate.s", "s"),
    ("histories.completions.yielded", "count"),
    ("opacity.e2e.calls", "count"),
    ("opacity.e2e.s", "s"),
    ("opacity.e2e.distinct_ratio", "ratio"),
    ("opacity.alt.calls", "count"),
    ("opacity.alt.s", "s"),
    ("opacity.durable.calls", "count"),
    ("opacity.durable.s", "s"),
    ("dtms2.step.calls", "count"),
    ("dtms2.step.s", "s"),
    ("dtms2.enabled.calls", "count"),
    ("dtms2.enabled.s", "s"),
    ("dtms2.accepts.calls", "count"),
    ("dtms2.accepts.s", "s"),
    ("dtms2.walk.calls", "count"),
    ("dtms2.walk.s", "s"),
    ("dtms2.closure.calls", "count"),
    ("dtms2.closure.s", "s"),
    ("dtms2.matching.calls", "count"),
    ("dtms2.matching.s", "s"),
    ("refinement.sim_step.calls", "count"),
    ("refinement.sim_step.s", "s"),
    ("refinement.sim_step.max_candidates", "count"),
    ("refinement.sim_step.distinct_ratio", "ratio"),
    ("refinement.weak_sim.calls", "count"),
    ("refinement.weak_sim.s", "s"),
    ("cli.self_s", "s"),
    ("cex_events", "events"),
    ("wrong_verdict_share", "ratio"),
    ("trace_overhead", "ratio"),
)


def _resolve(module: str, path: str):
    """(owner, attribute, raw class-dict entry or module value)."""
    owner = sys.modules[module]
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    raw = vars(owner)[attr]
    return owner, attr, raw


class _Stat:
    __slots__ = ("calls", "total", "self_time", "yielded")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.yielded = 0


class Tracer:
    """Records spans at the boundaries listed in ``SPANS``."""

    def __init__(self) -> None:
        self.stats = {name: _Stat() for _, _, name in SPANS}
        # spans are recorded only while this is set
        self.enabled = False
        # child time of each open span, innermost last
        self._open: list[float] = []
        self._patched: list[tuple[object, str, object]] = []
        # argument and result observations
        self.dwf_events = 0
        self.e2e_keys: set = set()
        self.trace_keys: set = set()
        self.sim_keys: set = set()
        self.sim_max_candidates = 0
        self.explorer_histories = 0
        self.explorer_states = 0

    # -- span recording -------------------------------------------------------

    def _close(self, stat: _Stat, t0: float) -> None:
        dur = time.perf_counter() - t0
        child = self._open.pop()
        stat.calls += 1
        stat.total += dur
        stat.self_time += dur - child
        if self._open:
            self._open[-1] += dur

    def _observed(self, observe, *args) -> None:
        """Run an observation; its time is kept out of the enclosing
        span's self time."""
        t0 = time.perf_counter()
        observe(self, *args)
        if self._open:
            self._open[-1] += time.perf_counter() - t0

    def _wrap(self, func, name: str):
        stat = self.stats[name]
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        tracer = self

        if inspect.isgeneratorfunction(func):
            def gen_wrapper(*args, **kwargs):
                it = func(*args, **kwargs)
                while True:
                    if not tracer.enabled:
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        yield item
                        continue
                    tracer._open.append(0.0)
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(stat, t0)
                        return
                    tracer._close(stat, t0)
                    stat.yielded += 1
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            if before is not None:
                tracer._observed(before, args)
            tracer._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(stat, t0)
            if after is not None:
                tracer._observed(after, result)
            return result
        return wrapper

    # -- installing and restoring ---------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in ``SPANS``."""
        modules = [m for n, m in sys.modules.items()
                   if n == "durastm" or n.startswith("durastm.")]
        for module, path, name in SPANS:
            owner, attr, raw = _resolve(module, path)
            if isinstance(owner, type):
                func = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(func, name)
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(raw, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        self._patched.append((m, key, raw))
                        setattr(m, key, wrapped)

    def restore(self) -> None:
        """Put every original back and check that no wrapper is left."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        leaks = [f"{getattr(o, '__name__', o)}.{a}"
                 for o, a, original in self._patched
                 if vars(o)[a] is not original]
        self._patched.clear()
        if leaks:
            raise RuntimeError(f"trace wrappers left installed: {leaks}")

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric the trace measures, by name.

        ``cex_events``, ``wrong_verdict_share`` and ``trace_overhead`` come
        from the workload and the parent run, not from spans.
        """
        s = self.stats

        def layer(prefix: str) -> list[_Stat]:
            return [st for n, st in s.items() if n.startswith(prefix)]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        dwf = s["histories.dwf"]
        e2e = s["opacity.e2e"]
        sim = s["refinement.sim_step"]
        trace = s["explorer.advance_trace"]
        hashes = s["explorer.canonical_hash"]
        m = {
            "explorer.self_s": sum(st.self_time for st in layer("explorer.")),
            "explorer.canonical_hash.calls": hashes.calls,
            "explorer.canonical_hash.s": hashes.total,
            "explorer.dedup.distinct_ratio":
                ratio(self.explorer_states, hashes.calls),
            "explorer.advance_trace.distinct_ratio":
                ratio(len(self.trace_keys), trace.calls),
            "explorer.histories": self.explorer_histories,
            "explorer.states": self.explorer_states,
            # nvm methods call each other, so the layer's time is the sum
            # of their self times
            "nvm.calls": sum(st.calls for st in layer("nvm.")),
            "nvm.s": sum(st.self_time for st in layer("nvm.")),
            "histories.dwf.mean_events": ratio(self.dwf_events, dwf.calls),
            "histories.enumerate.yielded": s["histories.enumerate"].yielded,
            "histories.enumerate.s": s["histories.enumerate"].total,
            "histories.completions.yielded":
                s["histories.completions"].yielded,
            "opacity.e2e.distinct_ratio": ratio(len(self.e2e_keys), e2e.calls),
            "refinement.sim_step.max_candidates": self.sim_max_candidates,
            "refinement.sim_step.distinct_ratio":
                ratio(len(self.sim_keys), sim.calls),
            "cli.self_s": sum(st.self_time for st in layer("cli.")),
        }
        for name in ("explorer.advance_trace", "dtml.step", "dtml.enabled",
                     "histories.dwf", "opacity.e2e", "opacity.alt",
                     "opacity.durable", "dtms2.step", "dtms2.enabled",
                     "dtms2.accepts", "dtms2.walk", "dtms2.closure",
                     "dtms2.matching", "refinement.sim_step",
                     "refinement.weak_sim"):
            m[f"{name}.calls"] = s[name].calls
            m[f"{name}.s"] = s[name].total
        return m


def _see_dwf(tracer: Tracer, args) -> None:
    tracer.dwf_events += len(args[0])


def _see_e2e(tracer: Tracer, args) -> None:
    tracer.e2e_keys.add((tuple(args[0]),) + tuple(args[1:]))


def _see_trace(tracer: Tracer, args) -> None:
    # (machine, candidate set, event)
    tracer.trace_keys.add(args[1:])


def _see_sim(tracer: Tracer, args) -> None:
    # (machine, candidate set, concrete action, concrete state, event)
    tracer.sim_keys.add(args[1:])
    tracer.sim_max_candidates = max(tracer.sim_max_candidates, len(args[1]))


def _see_report(tracer: Tracer, report) -> None:
    tracer.explorer_histories += report.histories_explored
    tracer.explorer_states += report.states_visited


_BEFORE = {
    "histories.dwf": _see_dwf,
    "opacity.e2e": _see_e2e,
    "refinement.sim_step": _see_sim,
    "explorer.advance_trace": _see_trace,
}
_AFTER = {
    "explorer.exhaustive": _see_report,
    "explorer.random": _see_report,
    "explorer.reference": _see_report,
}
