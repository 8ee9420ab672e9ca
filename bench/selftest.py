"""Self-test of the benchmark's tracing and checks.

    python3 bench/selftest.py [--seed 7]

For every workload, op 0 runs traced twice, each time under a fresh
Tracer; the two runs must give identical counts (cost builds, theta calls,
pelt calls, cost lookups, network trainings), every span must lie inside
its parent, and uninstalling must restore every wrapped name. A perturbed
objective must fail the objective check. Exits 1 on the first failure.
"""

import argparse
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import dataclasses  # noqa: E402

import jil  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, CheckFailed, check_objective  # noqa: E402

# counters that must be non-zero on op 0 of each workload
EXPECTED = {
    "ljil-large": ("cost.builds", "cost.theta_calls", "segment.pelt_calls", "segment.cost_lookups"),
    "ljil-cv": ("cost.builds", "cost.theta_calls", "segment.pelt_calls", "segment.cost_lookups"),
    "djil-small": ("segment.pelt_calls", "segment.cost_lookups", "mlp.trainings"),
    "bench-reps": ("cost.builds", "cost.theta_calls", "segment.pelt_calls", "segment.cost_lookups"),
}


def wrapped_names() -> dict:
    names = {(id(m), a): getattr(m, a) for m, a, _ in tracing.CALL_SITES if hasattr(m, a)}
    for m in tracing.PELT_SITES:
        names[id(m), "pelt"] = m.pelt
    for m in tracing.COST_CACHE_SITES:
        names[id(m), "CostCache"] = m.CostCache
    for a, _ in tracing.COST_METHODS:
        names[id(jil.cost.CostCache), a] = getattr(jil.cost.CostCache, a)
    return names


def traced_op0(wl) -> tracing.Tracer:
    inputs = wl.prepare(0)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = 0
    try:
        wl.run(inputs)
    finally:
        tracer.op = None
        tracer.uninstall()
    return tracer


def fail(msg: str) -> int:
    print(f"FAIL {msg}")
    return 1


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    before = wrapped_names()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=out_dir)
    try:
        for name, cls in WORKLOADS.items():
            wl = cls(args.seed, workdir)
            first, second = traced_op0(wl), traced_op0(wl)
            counts = first.op_counts(0)
            if counts != second.op_counts(0):
                return fail(f"{name}: counts differ {counts} vs {second.op_counts(0)}")
            missing = [k for k in EXPECTED[name] if not counts.get(k)]
            if missing:
                return fail(f"{name}: zero counters {missing}")
            for sid, span, start, end, parent, _ in first.spans:
                if parent is not None:
                    _, pname, pstart, pend, _, _ = first.spans[parent]
                    if not (pstart <= start <= end <= pend):
                        return fail(f"{name}: span {span} escapes its parent {pname}")
            print(f"ok {name}: {len(first.spans)} spans, counts {counts}")
        if wrapped_names() != before:
            return fail("uninstall left a wrapper in place")
        ljil = WORKLOADS["ljil-large"](args.seed, workdir)
        inputs = ljil.prepare(0)
        d = inputs[1]
        fit, _ = ljil.run(inputs)
        check_objective(d, fit)
        try:
            check_objective(d, dataclasses.replace(fit, objective=fit.objective * (1 + 1e-6)))
        except CheckFailed:
            print("ok objective check rejects a perturbed objective")
        else:
            return fail("objective check accepted a perturbed objective")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
