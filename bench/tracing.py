"""Span and count tracing of ``jil`` module boundaries, for the traced run.

Each wrapper is installed at the name under which the calling module
imported the function (``from .cost import CostCache`` makes the call in
``jil.fit`` go through ``jil.fit.CostCache``), so the spans sit exactly on
the boundaries between modules. A span holds a name, start, end, parent
span and op index; spans stay in memory until the run ends. Wrappers only
record while an op is open, so set-up and output checks pass through.

Counters are kept at the same boundaries: CostCache builds, theta calls,
pelt calls, cost lookups (through a counting wrapper around the costfn
handed to pelt) and network trainings. tracemalloc runs only around the
CostCache constructor, for the cost layer's peak allocation.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import Counter

import numpy as np

import jil
import jil.cli
import jil.cost
import jil.fit
import jil.sim
import jil.tuning

# (module, attribute, span name) for every cross-module call that is traced.
# A name a later version of the package no longer has is skipped.
CALL_SITES = [
    (jil.cli, "main", "cli.main"),
    (jil.cli, "cmd_fit", "cli.fit"),
    (jil.cli, "cmd_evaluate", "cli.evaluate"),
    (jil.cli, "cv_select_ljil", "tuning.cv"),
    (jil.cli, "cv_select_djil", "tuning.cv"),
    (jil.cli, "fit_ljil", "fit.fit"),
    (jil.cli, "fit_djil", "fit.fit"),
    (jil.cli, "fit_propensity", "policy.propensity"),
    (jil.cli, "estimate_value", "policy.value"),
    (jil.cli, "replicate_table1", "sim.replicate"),
    (jil.sim, "fit_ljil", "fit.fit"),
    (jil.sim, "fit_propensity", "policy.propensity"),
    (jil.sim, "estimate_value", "policy.value"),
    (jil.sim, "gen_scenario", "sim.gen"),
    (jil.sim, "integrated_l2_loss", "sim.l2_loss"),
    (jil.fit, "mlp_train", "mlp.train"),
    (jil.tuning, "mlp_train", "mlp.train"),
    (jil, "fit_ljil", "fit.fit"),
    (jil, "fit_djil", "fit.fit"),
    (jil, "fit_propensity", "policy.propensity"),
    (jil, "estimate_value", "policy.value"),
    (jil, "replicate_table1", "sim.replicate"),
]
PELT_SITES = [jil.fit, jil.tuning]
COST_CACHE_SITES = [jil.fit, jil.tuning]
COST_METHODS = [("costfn", "cost.costfn"), ("theta", "cost.theta")]
COUNTED = {
    "cost.build": "cost.builds",
    "cost.theta": "cost.theta_calls",
    "segment.pelt": "segment.pelt_calls",
    "mlp.train": "mlp.trainings",
}

# update no __dict__: the wrapped callable may be a class
wraps = functools.partial(functools.wraps, updated=())


def array_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds directly or in containers."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(array_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(v) for v in obj)
    return 0


class Tracer:
    """Installs the wrappers, records spans and counts, and restores."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, op]
        self.counts = Counter()  # op index -> counts, keyed (op, name)
        self.builds = []  # (op, peak traced bytes, array bytes held)
        self.scale = {}  # op -> factor from wall time to reference-speed time
        self.op = None
        self._stack = []
        self._saved = []

    # -------------------------------------------------------------- spans

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent, self.op])
        self._stack.append(sid)
        counter = COUNTED.get(name)
        if counter:
            self.counts[self.op, counter] += 1
        return sid

    def _close(self, sid):
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, fn, name):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return wrapper

    def _pelt(self, fn):
        spanned = self._spanned(fn, "segment.pelt")

        @wraps(fn)
        def wrapper(costfn, m, *args, **kwargs):
            if self.op is None:
                return fn(costfn, m, *args, **kwargs)
            key = self.op
            lookups = 0

            def counted(lo, hi):
                nonlocal lookups
                lookups += 1
                return costfn(lo, hi)

            try:
                return spanned(counted, m, *args, **kwargs)
            finally:
                self.counts[key, "segment.cost_lookups"] += lookups
                self.counts[key, "segment.exact_lookups"] += m * (m + 1) // 2

        return wrapper

    def _cost_cache(self, cls):
        spanned = self._spanned(cls, "cost.build")

        @wraps(cls)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return cls(*args, **kwargs)
            tracemalloc.start()
            try:
                cache = spanned(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.builds.append((self.op, peak, array_bytes(vars(cache))))
            return cache

        return wrapper

    # ------------------------------------------------------ install/remove

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        for mod, attr, name in CALL_SITES:
            if hasattr(mod, attr):
                self._patch(mod, attr, self._spanned(getattr(mod, attr), name))
        for mod in PELT_SITES:
            if hasattr(mod, "pelt"):
                self._patch(mod, "pelt", self._pelt(mod.pelt))
        for mod in COST_CACHE_SITES:
            if hasattr(mod, "CostCache"):
                self._patch(mod, "CostCache", self._cost_cache(mod.CostCache))
        for attr, name in COST_METHODS:
            if hasattr(jil.cost.CostCache, attr):
                method = getattr(jil.cost.CostCache, attr)
                self._patch(jil.cost.CostCache, attr, self._spanned(method, name))

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # ---------------------------------------------------------- summaries

    def op_counts(self, op) -> dict:
        """Exact counts of one op, by counter name."""
        return {name: v for (o, name), v in sorted(self.counts.items()) if o == op}

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer metrics: seconds are means per op over the traced ops,
        at reference speed; counts and ratios come from op 0 alone, so they
        repeat exactly."""
        total = Counter()
        self_s = Counter()
        child = Counter()
        for sid, name, start, end, parent, op in self.spans:
            took = (end - start) * self.scale.get(op, 1.0)
            total[name] += took
            if parent is not None:
                child[parent] += took
        for sid, name, start, end, parent, op in self.spans:
            took = (end - start) * self.scale.get(op, 1.0)
            self_s[name.split(".")[0]] += took - child[sid]

        def per_op(value):
            return value / ops

        counts = Counter(self.op_counts(0))
        cv_ids = {s[0] for s in self.spans if s[1] == "tuning.cv"}
        cv_builds = sum(1 for s in self.spans if s[1] == "cost.build" and self._inside(s[0], cv_ids))
        trainings = sum(1 for s in self.spans if s[1] == "mlp.train")
        peaks = [b[1] for b in self.builds] or [0]
        held = [b[2] for b in self.builds] or [0]
        exact = counts["segment.exact_lookups"]
        return {
            "cost.build_s": per_op(total["cost.build"]),
            "cost.builds": counts["cost.builds"],
            "cost.peak_alloc_mb": max(peaks) / 2**20,
            "cost.table_mb_computed": max(held) / 2**20,
            "cost.costfn_s": per_op(total["cost.costfn"]),
            "cost.theta_calls": counts["cost.theta_calls"],
            "segment.pelt_s": per_op(total["segment.pelt"]),
            "segment.self_s": per_op(self_s["segment"]),
            "segment.pelt_calls": counts["segment.pelt_calls"],
            "segment.cost_lookups": counts["segment.cost_lookups"],
            "segment.lookups_per_exact": counts["segment.cost_lookups"] / exact if exact else 0.0,
            "mlp.train_s": per_op(total["mlp.train"]),
            "mlp.trainings": counts["mlp.trainings"],
            "mlp.train_ms_mean": 1e3 * total["mlp.train"] / trainings if trainings else 0.0,
            "tuning.cv_s": per_op(total["tuning.cv"]),
            "tuning.self_s": per_op(self_s["tuning"]),
            "tuning.fold_s": total["tuning.cv"] / cv_builds if cv_builds else 0.0,
            "fit.fit_s": per_op(total["fit.fit"]),
            "fit.self_s": per_op(self_s["fit"]),
            "policy.propensity_s": per_op(total["policy.propensity"]),
            "policy.value_s": per_op(total["policy.value"]),
            "sim.gen_s": per_op(total["sim.gen"]),
            "sim.l2_loss_s": per_op(total["sim.l2_loss"]),
            "sim.replicate_s": per_op(total["sim.replicate"]),
            "cli.fit_s": per_op(total["cli.fit"]),
            "cli.evaluate_s": per_op(total["cli.evaluate"]),
            "cli.self_s": per_op(self_s["cli"]),
        }

    def _inside(self, sid, ancestors) -> bool:
        parent = self.spans[sid][4]
        while parent is not None:
            if parent in ancestors:
                return True
            parent = self.spans[parent][4]
        return False

    def span_records(self) -> list:
        return [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "op": s[5]}
            for s in self.spans
        ]
