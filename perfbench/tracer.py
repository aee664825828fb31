"""Per-layer tracer that wraps the program's public functions from outside.

Each layer function is replaced, at the name the CLI runners call it by, with
a wrapper that records a span (name, item, parent, start, end). A layer's
self time is its span's duration minus the time of the wrapped spans it
called. Nothing under ``src/`` is modified: module attributes of
``fairthresh.cli`` are swapped for the duration of :meth:`Tracer.installed`
and restored afterwards. The ``sc`` and ``ga`` module references of the CLI
are replaced by proxies, so calls made inside ``scores`` and ``gaussian``
themselves are not intercepted.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict

# (metric prefix, owner of the name in fairthresh.cli, attribute)
TARGETS = (
    ("synth.draw_population", "cli", "draw_population"),
    ("synth.sample", "cli", "sample"),
    ("scores.fit_logistic", "sc", "fit_logistic"),
    ("scores.score_dataset", "sc", "score_dataset"),
    ("metrics.grouped_scores", "GroupedScores", "from_dataset"),
    ("metrics.evaluate", "cli", "evaluate"),
    ("solve.solve", "cli", "solve"),
    ("solve.solve_multiclass_dp", "cli", "solve_multiclass_dp"),
    ("gaussian.t_star", "ga", "t_star"),
    ("gaussian.fair_accuracy", "ga", "fair_accuracy"),
    ("gaussian.oracle_multiclass_dp", "ga", "oracle_multiclass_dp"),
)
ROOT = "cli.runner"
LAYERS = tuple(t[0] for t in TARGETS) + (ROOT,)
MEASURES = ("dp", "eo", "pe", "oa")


class TracerError(RuntimeError):
    """A traced name is missing, or a layer the workload needs was never hit."""


class _ModuleProxy:
    """Module stand-in whose listed attributes are replaced."""

    def __init__(self, module, overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _tags(prefix, signature, args, kwargs, result) -> dict:
    """Counts derived from a call's public arguments and result."""
    if prefix == "solve.solve":
        return {
            "measure": result.constraint.measure,
            "candidates": int(result.n_candidates),
            "scanned": result.branch != "within-tolerance",
            "saturated": bool(result.saturated),
        }
    if prefix == "scores.fit_logistic":
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        data, config = bound.arguments["data"], bound.arguments["config"]
        return {"row_epochs": int(data.n) * int(config.epochs)}
    return {}


class Tracer:
    """Records spans in memory; one root span per runner call."""

    def __init__(self):
        self.spans = []
        self._stack = []  # open frames: [span index, child ns]
        self._item = None

    def _open(self, name):
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append({"name": name, "item": self._item, "parent": parent,
                           "start_ns": time.perf_counter_ns()})
        self._stack.append([len(self.spans) - 1, 0])

    def _close(self, tags):
        index, child_ns = self._stack.pop()
        span = self.spans[index]
        span["end_ns"] = end = time.perf_counter_ns()
        duration = end - span["start_ns"]
        span["self_ns"] = duration - child_ns
        span.update(tags)
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, prefix, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(prefix)
            tags = {}
            try:
                result = fn(*args, **kwargs)
                tags = _tags(prefix, signature, args, kwargs, result)
                return result
            finally:
                self._close(tags)

        return traced

    @contextlib.contextmanager
    def item(self, index):
        """Root span of one runner call of item ``index`` and its report rendering."""
        self._item = index
        self._open(ROOT)
        try:
            yield
        finally:
            self._close({})
            self._item = None

    @contextlib.contextmanager
    def installed(self, cli):
        """Swap every traced name in ``cli`` for its wrapper, then restore."""
        owners = {"cli": cli, "sc": cli.sc, "ga": cli.ga, "GroupedScores": cli.GroupedScores}
        for prefix, owner, attr in TARGETS:
            if not callable(getattr(owners[owner], attr, None)):
                raise TracerError(f"{prefix}: {owner}.{attr} no longer exists in fairthresh.cli")
        saved = {name: getattr(cli, name)
                 for name in ("sc", "ga") + tuple(a for _, o, a in TARGETS if o == "cli")}
        classmethod_saved = cli.GroupedScores.__dict__["from_dataset"]
        proxies = {"sc": {}, "ga": {}}
        try:
            for prefix, owner, attr in TARGETS:
                if owner == "cli":
                    setattr(cli, attr, self.wrap(prefix, getattr(cli, attr)))
                elif owner == "GroupedScores":
                    fn = classmethod_saved.__func__
                    setattr(cli.GroupedScores, attr, classmethod(self.wrap(prefix, fn)))
                else:
                    proxies[owner][attr] = self.wrap(prefix, getattr(owners[owner], attr))
            for name, overrides in proxies.items():
                setattr(cli, name, _ModuleProxy(owners[name], overrides))
            yield self
        finally:
            for name, value in saved.items():
                setattr(cli, name, value)
            cli.GroupedScores.from_dataset = classmethod_saved

    def layer_metrics(self, n_items, expected, expected_measures) -> dict:
        """Per-item calls and self time of every layer, plus derived counts.

        Raises :class:`TracerError` when a layer in ``expected`` (or a solve
        measure in ``expected_measures``) was never called.
        """
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        measure_ns = defaultdict(int)
        solves = {"candidates": 0, "scanned": 0, "saturated": 0}
        row_epochs = 0
        for span in self.spans:
            calls[span["name"]] += 1
            self_ns[span["name"]] += span["self_ns"]
            if "measure" in span:
                measure_ns[span["measure"]] += span["self_ns"]
                for key in solves:
                    solves[key] += int(span[key])
            row_epochs += span.get("row_epochs", 0)
        missing = [name for name in expected if calls[name] == 0]
        missing += [f"solve.solve.{m}" for m in expected_measures if measure_ns[m] == 0]
        if missing:
            raise TracerError(f"layers never called on this workload: {', '.join(missing)}")
        wall_ns = sum(s["end_ns"] - s["start_ns"] for s in self.spans if s["name"] == ROOT)
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = calls[name] / n_items
            out[f"{name}.self_ms"] = self_ns[name] / 1e6 / n_items
            out[f"{name}.share"] = self_ns[name] / wall_ns
        for m in MEASURES:
            out[f"solve.solve.{m}.self_ms"] = measure_ns[m] / 1e6 / n_items
        n_solves = calls["solve.solve"]
        out["solve.solve.candidates"] = solves["candidates"] / n_items
        out["solve.solve.scanned_ratio"] = solves["scanned"] / n_solves if n_solves else 0.0
        out["solve.solve.saturated"] = solves["saturated"] / n_items
        out["scores.fit_logistic.row_epochs"] = row_epochs / n_items
        out["trace.overhead_ratio"] = len(self.spans) * per_call_overhead_ns() / wall_ns
        return out


def per_call_overhead_ns() -> float:
    """Estimated cost one traced call adds, from wrapping a no-op function."""
    calls = 5000

    def noop():
        return None

    probe = Tracer()
    wrapped = probe.wrap("probe", noop)
    with probe.item(0):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter_ns() - t0
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        noop()
    bare = time.perf_counter_ns() - t0
    return max(traced - bare, 0) / calls
