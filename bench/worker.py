"""One benchmark process: set-up, the timed window, output checks.

Started by run.py with BLAS threads pinned to 1; prints one JSON object on
its last stdout line. Set-up (imports, input generation, one untimed
warm-up op) is timed from the first line of this file.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WARMUP, WORKLOADS  # noqa: E402

# every run does at least this many ops; the quality figures are the mean
# over exactly these, so they repeat for a given seed
MIN_OPS = 3
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "JIL_THREADS")
SWEEP_METRICS = ("cost.build_s", "segment.pelt_s", "cost.peak_alloc_mb", "cost.table_mb_computed")


def machine_facts() -> dict:
    def sysconf(num):
        # glibc's _SC_LEVEL{1_DCACHE,2_CACHE,3_CACHE}_SIZE, which os.sysconf
        # does not name
        try:
            return os.sysconf(num)
        except (ValueError, OSError):
            return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "l1d_bytes": sysconf(188),
        "l2_bytes": sysconf(191),
        "l3_bytes": sysconf(194),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


# Fixed reference work, timed just before and after every op and after
# set-up. A shared machine's speed can drift by 2x over tens of seconds, for
# interpreted code, small numpy calls and LAPACK alike, so reported times
# are scaled to a reference speed: wall time * REFERENCE_S / probe time.
# Each probe is the mean of PROBE_REPS runs, and an op is scaled by the mean
# of its two probes; means track a speed that flickers within an op better
# than the fastest run does. Raw times go to the result file.
REFERENCE_S = 0.012
PROBE_REPS = 3
_PROBE_RNG = np.random.default_rng(0)
_PROBE_X = _PROBE_RNG.standard_normal((32, 4))
_PROBE_W = _PROBE_RNG.standard_normal((8, 4))
_PROBE_G = _PROBE_RNG.standard_normal((2000, 5, 5))
_PROBE_G = _PROBE_G @ _PROBE_G.transpose(0, 2, 1)


def speed_probe() -> float:
    """Seconds the reference work takes now (mean of PROBE_REPS runs)."""
    start = time.perf_counter()
    for _ in range(PROBE_REPS):
        acc = 0
        for i in range(30_000):
            acc += i * i
        for _ in range(500):
            np.maximum(_PROBE_X @ _PROBE_W.T + 1.0, 0.0).sum()
        np.linalg.eigh(_PROBE_G)
    return (time.perf_counter() - start) / PROBE_REPS


def window(wl, seconds: float, tracer=None) -> dict:
    """Run ops 0, 1, ... until their summed wall time reaches `seconds`.

    Only wl.run is timed, bracketed by two speed probes. An op that raises
    or fails a check counts as failed and is not retried.
    """
    times, raw, quality, failed = [], [], [], 0
    first_inputs = None
    busy = 0.0
    i = 0
    while busy < seconds or i < MIN_OPS:
        inputs = wl.prepare(i)
        if i == 0:
            first_inputs = inputs
        ok = True
        probe = speed_probe()
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            result = wl.run(inputs)
        except Exception:  # noqa: BLE001  (a failed op is counted, not fatal)
            ok = False
            traceback.print_exc(file=sys.stderr)
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.op = None
        scale = REFERENCE_S / ((probe + speed_probe()) / 2)
        if tracer is not None:
            tracer.scale[i] = scale
        raw.append(elapsed)
        times.append(elapsed * scale)
        busy += elapsed
        if ok:
            try:
                q = wl.check(inputs, result, first=i == 0, quality=i < MIN_OPS)
                if q:
                    quality.append(q)
            except Exception:  # noqa: BLE001  (includes CheckFailed)
                ok = False
                traceback.print_exc(file=sys.stderr)
        failed += not ok
        i += 1
    return {"times": times, "raw_times": raw, "failed": failed, "quality": quality,
            "first": first_inputs}


def mean_quality(records) -> dict:
    keys = ("cp_hausdorff", "regret")
    if not records:
        return {k: float("nan") for k in keys}
    return {k: statistics.fmean(r[k] for r in records) for k in keys}


def sweep(wl) -> dict:
    """One traced op per sample size in wl.sweep_n; not part of any gate."""
    out = {}
    for n in wl.sweep_n:
        inputs = wl.sized(n)
        tracer = Tracer()
        tracer.install()
        probe = speed_probe()
        tracer.op = 0
        try:
            wl.run(inputs)
        finally:
            tracer.op = None
            tracer.uninstall()
        tracer.scale[0] = REFERENCE_S / ((probe + speed_probe()) / 2)
        layer = tracer.layer_metrics(1)
        for key in SWEEP_METRICS:
            out[f"sweep.n{n}.{key}"] = layer[key]
    return out


def sweep_keys() -> list:
    return [f"sweep.n{n}.{k}" for n in WORKLOADS["ljil-large"].sweep_n for k in SWEEP_METRICS]


def traced(wl, seconds: float, out_dir: str, tag: str) -> dict:
    """Untraced then traced half-windows; per-layer metrics from the second."""
    plain = window(wl, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        run = window(wl, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    layer = tracer.layer_metrics(len(run["times"]))
    layer["trace.overhead_frac"] = (
        statistics.median(run["times"]) / statistics.median(plain["times"]) - 1.0
    )
    layer["segment.djil_prune_gap"] = 0.0
    layer.update(wl.trace_extra(run["first"]))
    layer.update({k: 0.0 for k in sweep_keys()})
    layer.update(sweep(wl))
    for k, v in mean_quality(run["quality"]).items():
        layer[f"quality.{k}"] = v
    with open(os.path.join(out_dir, f"{tag}-spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.span_records(), "counts_op0": tracer.op_counts(0)}, fh)
    return {
        "times": plain["times"] + run["times"],
        "raw_times": plain["raw_times"] + run["raw_times"],
        "failed": plain["failed"] + run["failed"],
        "quality": mean_quality(run["quality"]),
        "layer": layer,
        "counts_op0": tracer.op_counts(0),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--tag", required=True)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    warm = wl.prepare(WARMUP)
    wl.run(warm)
    setup_raw = time.perf_counter() - T0
    probe = (speed_probe() + speed_probe()) / 2
    out = {"setup_s": setup_raw * REFERENCE_S / probe, "setup_raw_s": setup_raw}
    if not args.setup_only:
        if args.trace:
            out.update(traced(wl, args.seconds, args.out_dir, args.tag))
        else:
            run = window(wl, args.seconds)
            out.update(times=run["times"], raw_times=run["raw_times"], failed=run["failed"],
                       quality=mean_quality(run["quality"]))
        out["facts"] = machine_facts()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
