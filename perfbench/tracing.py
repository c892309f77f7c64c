"""Span tracing for the benchmark, installed from outside the program.

The tracer rebinds public functions of ``depthlab`` to timing wrappers: every
module attribute that *is* the original function object is replaced, so a
name imported with ``from .estimators import run_estimator`` is traced too,
and nested calls become child spans of their callers.  Nothing under
``src/`` is edited; :meth:`Tracer.uninstall` puts the originals back.

Spans are kept in memory as ``[name, start, end, parent]`` and summarized
when the traced pass ends.  A forked pool worker inherits the wrappers; it
drops the spans it inherited from its parent, and after each top-level span
appends its own spans to ``spans-<pid>.jsonl`` in the export directory,
from which :meth:`Tracer.collect` merges them.  ``time.perf_counter`` is
the system-wide monotonic clock on Linux, so worker and parent times share
one axis.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import statistics
import sys
import time

# (module, function, span label).  The label is a span name, or a callable
# naming the span from the call's arguments.  Of the estimator functions only
# mve and s_bisquare are traced: they are the ones nested inside other
# estimators, and run_estimator already times each estimator as a whole.
TRACED = [
    ("cli", "cmd_simulate", "cli.simulate"),
    ("simlab", "run_grid", "simlab.run_grid"),
    ("simlab", "_one_replicate", "simlab.replicate"),
    ("simlab", "gen_contaminated", "simlab.gen_contaminated"),
    ("simlab", "bias_measures", "simlab.bias_measures"),
    ("estimators", "run_estimator",
     lambda eid, *a, **k: f"estimators.{str(eid).upper()}"),
    ("estimators", "mve", "estimators.mve"),
    ("estimators", "s_bisquare", "estimators.s_bisquare"),
    ("deepest", "tukey_median", "deepest.tukey_median"),
    ("deepest", "deepest_scatter", "deepest.deepest_scatter"),
    ("deepest", "deepest_regression", "deepest.deepest_regression"),
    ("deepest", "deepest_locscale2", "deepest.deepest_locscale2"),
    ("depth", "tukey_depth", "depth.tukey_depth"),
    ("depth", "regression_depth", "depth.regression_depth"),
    ("depth", "scatter_depth_pointmass", "depth.scatter_depth_pointmass"),
    ("numerics", "m_scale", "numerics.m_scale"),
    ("numerics", "unit_directions", "numerics.unit_directions"),
    ("maxbias", "curve_table",
     lambda curve, *a, **k: f"maxbias.curve_table.{curve}"),
    ("maxbias", "ls2_breakdown", "maxbias.ls2_breakdown"),
]


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self, export_dir):
        self.export_dir = export_dir
        self.owner = os.getpid()
        self.pid = self.owner
        self.spans = []
        self.stack = []
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name):
        pid = os.getpid()
        if pid != self.pid:
            # First span in a forked worker: the copied parent state is not ours.
            self.pid, self.spans, self.stack = pid, [], []
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)

    def _exit(self):
        idx = self.stack.pop()
        self.spans[idx][2] = time.perf_counter()
        if not self.stack and self.pid != self.owner:
            path = os.path.join(self.export_dir, f"spans-{self.pid}.jsonl")
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(self.spans) + "\n")
            self.spans = []

    def _wrap(self, fn, label):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(label(*args, **kwargs) if callable(label) else label)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "depthlab"
                                      or name.startswith("depthlab."))]
        for modname, attr, label in TRACED:
            original = getattr(sys.modules[f"depthlab.{modname}"], attr)
            wrapper = self._wrap(original, label)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []

    def collect(self):
        """All spans of this process plus those exported by workers."""
        spans = list(self.spans)
        for path in sorted(glob.glob(os.path.join(self.export_dir,
                                                  "spans-*.jsonl"))):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    base = len(spans)
                    spans.extend([n, s, e, None if p is None else p + base]
                                 for n, s, e, p in json.loads(line))
            os.remove(path)
        return spans


def summarize(spans):
    """Per span name: the list of durations (s) and the total self time (s).

    Self time is a span's duration minus the time its child spans cover;
    children of one span run one after another, so their durations add.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"durations": [], "self_s": 0.0})
        entry["durations"].append(end - start)
        entry["self_s"] += (end - start) - child_time[i]
    return out


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    v = sorted(values)
    rank = max(1, -(-q * len(v) // 100))
    return v[int(rank) - 1]
