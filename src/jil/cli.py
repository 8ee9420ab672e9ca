"""Command-line front end: simulate, fit, evaluate, bench.

Exit codes: 0 success, 1 usage error, 2 data or model-artifact error,
3 unexpected internal failure. Artifacts are JSON documents under
schema_version "1" with every double rendered at 17 significant digits,
so a written model reloads bitwise. File writes go through a temp file
and rename, never leaving a partial artifact behind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, replace
from datetime import datetime, timezone

import numpy as np

from .core import (
    Dataset,
    Interval,
    JilFit,
    Linear,
    Partition,
    make_grid,
    normalize_treatment,
)
from .errors import InvalidData, JilError, SchemaMismatch
from .fit import fit_djil, fit_ljil
from .mlp import MlpModel, TrainConfig
from .policy import (
    I2dr,
    MaxDose,
    MidPoint,
    MinDose,
    PropensityModel,
    UniformRandom,
    _doses,
    estimate_value,
    fit_propensity,
    recommend_batch,
)
from .sim import (
    ScenarioSpec,
    gen_scenario,
    replicate_table1,
)
from .tuning import cv_select_djil, cv_select_ljil, default_gamma, default_grid

SCHEMA_VERSION = "1"


class _UsageError(Exception):
    """A flag or environment setting the command cannot use (exit 1)."""


ARTIFACT_KEYS = (
    "schema_version",
    "method",
    "m",
    "lambda",
    "gamma",
    "objective",
    "partition",
    "models",
    "propensity",
    "value",
    "provenance",
)


# ------------------------------------------------------------ serialization


def _fmt(v) -> str:
    """A double at 17 significant digits; float(_fmt(v)) == v exactly."""
    return format(float(v), ".17g")


def _jtext(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, 17-digit doubles."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = "  " * (indent + 1)
        items = [f"{inner}{json.dumps(k)}: {_jtext(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + "  " * indent + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_jtext(v, indent) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if obj is None:
        return "null"
    return json.dumps(obj)


def _atomic_write_text(path: str, text: str) -> None:
    path = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".jil-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _created_at() -> str:
    """ISO-8601 UTC timestamp; SOURCE_DATE_EPOCH overrides the clock so
    repeated builds can produce byte-identical artifacts."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch:
        dt = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        dt = datetime.now(tz=timezone.utc)
    return dt.isoformat(timespec="seconds")


# ----------------------------------------------------------------- CSV I/O


def _write_csv(d: Dataset, path: str) -> None:
    cols = ["y", "a"] + [f"x{j}" for j in range(1, d.p + 1)]
    lines = [",".join(cols)]
    for i in range(d.n):
        vals = [d.outcomes[i], d.treatments[i], *d.covariates[i]]
        lines.append(",".join(_fmt(v) for v in vals))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _read_csv(path: str):
    """Parse a y,a,x1..xp file into raw arrays, naming the first bad row."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise InvalidData("csv", None, "data file is empty")
    header = [h.strip() for h in lines[0].split(",")]
    expected = ["y", "a"] + [f"x{j}" for j in range(1, len(header) - 1)]
    if header != expected:
        raise InvalidData("csv", None, f"expected header y,a,x1,...,xp; got {lines[0]!r}")
    p = len(header) - 2
    y, a, X = [], [], []
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != p + 2:
            raise InvalidData(
                "csv", i, f"expected {p + 2} fields at row {i}, got {len(parts)}"
            )
        vals = []
        for tok in parts:
            try:
                vals.append(float(tok))
            except ValueError:
                raise InvalidData("csv", i, f"cannot parse {tok.strip()!r} at row {i}") from None
        y.append(vals[0])
        a.append(vals[1])
        X.append(vals[2:])
    n = len(y)
    return np.asarray(y), np.asarray(a), np.asarray(X, dtype=float).reshape(n, p)


def _build_dataset(y, a_raw, X):
    """Dataset plus the raw treatment range when min-max scaling was needed."""
    bad = ~np.isfinite(a_raw)
    if bad.any():
        row = int(np.argmax(bad))
        raise InvalidData("treatments", row, f"non-finite treatment at row {row}")
    a_min = a_max = None
    a = a_raw
    if a_raw.size and (a_raw.min() < 0.0 or a_raw.max() > 1.0):
        a_min, a_max = float(a_raw.min()), float(a_raw.max())
        a = normalize_treatment(a_raw)
    return Dataset(X, a, y), a_min, a_max


# --------------------------------------------------------------- artifacts


def _artifact_dict(fit: JilFit, prop: PropensityModel, value, provenance: dict) -> dict:
    models = []
    for mod in fit.models:
        if fit.method == "ljil":
            models.append({"theta": [float(t) for t in mod.theta]})
        else:
            models.append(
                {
                    "layer_sizes": [int(s) for s in mod.layer_sizes],
                    "weights": [[[float(v) for v in row] for row in W] for W in mod.weights],
                    "biases": [[float(v) for v in b] for b in mod.biases],
                }
            )
    payload = {
        "kind": "multinomial",
        "floor": float(prop.floor),
        "weights": [[float(v) for v in row] for row in prop.weights],
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "method": fit.method,
        "m": int(fit.m),
        "lambda": float(fit.lam),
        "gamma": float(fit.gamma),
        "objective": float(fit.objective),
        "partition": [[int(iv.lo), int(iv.hi)] for iv in fit.partition.intervals],
        "models": models,
        "propensity": payload,
        "value": asdict(value),
        "provenance": provenance,
    }


def _load_artifact(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        art = json.loads(text)
    except ValueError as exc:
        raise SchemaMismatch(f"model file is not valid JSON: {exc}") from None
    if not isinstance(art, dict):
        raise SchemaMismatch("model file must contain a JSON object")
    if art.get("schema_version") != SCHEMA_VERSION:
        raise SchemaMismatch(
            f"unsupported schema_version {art.get('schema_version')!r}; "
            f"this build reads {SCHEMA_VERSION!r}"
        )
    for key in ARTIFACT_KEYS:
        if key not in art:
            raise SchemaMismatch(f"model file is missing key {key!r}")
    if art["method"] not in ("ljil", "djil"):
        raise SchemaMismatch(f"unknown method {art['method']!r}")
    return art


def _int(v, what: str):
    """v if it is a JSON integer; a bool or a number with a fraction is not."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaMismatch(f"{what} must be an integer, got {v!r}")
    return v


def _finite(v, what: str):
    """v, finite JSON numbers (not bools), alone or in nested lists, as a float array."""

    def ok(x):
        if isinstance(x, list):
            return all(ok(y) for y in x)
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)

    if not ok(v):
        raise SchemaMismatch(f"{what} must be finite JSON numbers")
    return np.asarray(v, dtype=float)


def _number(v, what: str) -> float:
    """v, one finite JSON number (not a bool or a list), as a float."""
    if isinstance(v, list):
        raise SchemaMismatch(f"{what} must be one number, got {v!r}")
    return float(_finite(v, what))


def _decode_artifact(art: dict):
    """(fit, propensity, p, seed, raw dose range or None) of a loaded artifact.

    This is the one place an artifact's fields are decoded, by _int, _number
    and _finite: a missing key or a value of the wrong type or shape raises
    SchemaMismatch.
    """
    try:
        fit = _fit_from_artifact(art)
        prop = _prop_from_artifact(art["propensity"], fit.partition)
        prov = art["provenance"]
        p, seed = _int(prov["p"], "p"), _int(prov["seed"], "seed")
        a_range = None
        if prov.get("a_min") is not None:
            a_range = _number(prov["a_min"], "a_min"), _number(prov["a_max"], "a_max")
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaMismatch(f"malformed model file: {type(exc).__name__}: {exc}") from None
    return fit, prop, p, seed, a_range


def _fit_from_artifact(art: dict) -> JilFit:
    m = _int(art["m"], "m")
    edges = [(_int(lo, "partition"), _int(hi, "partition")) for lo, hi in art["partition"]]
    partition = Partition(tuple(Interval(lo, hi, m) for lo, hi in edges))
    models = []
    for entry in art["models"]:
        if art["method"] == "ljil":
            models.append(Linear(_finite(entry["theta"], "theta")))
        else:
            models.append(
                MlpModel(
                    tuple(_int(s, "layer_sizes") for s in entry["layer_sizes"]),
                    tuple(_finite(W, "weights") for W in entry["weights"]),
                    tuple(_finite(b, "biases") for b in entry["biases"]),
                )
            )
    return JilFit(
        partition=partition,
        models=tuple(models),
        m=m,
        lam=_number(art["lambda"], "lambda"),
        gamma=_number(art["gamma"], "gamma"),
        objective=_number(art["objective"], "objective"),
    )


def _prop_from_artifact(payload: dict, partition: Partition) -> PropensityModel:
    if payload["kind"] != "multinomial":
        raise SchemaMismatch(f"unknown propensity kind {payload['kind']!r}")
    floor = _number(payload["floor"], "floor")
    if floor != PropensityModel.floor:
        raise SchemaMismatch(f"propensity floor {floor!r} is not {PropensityModel.floor!r}")
    return PropensityModel(partition, _finite(payload["weights"], "propensity weights"))


# ---------------------------------------------------------------- commands


def cmd_simulate(args) -> int:
    d, _ = gen_scenario(ScenarioSpec(args.scenario, args.n, args.p, args.seed))
    _write_csv(d, args.out)
    print(f"wrote {args.out} ({d.n} rows, scenario {args.scenario})")
    return 0


def _resolve(d: Dataset, m: int, args, cfg: TrainConfig):
    """(lam, gamma) from the flags, cross-validating the default grid along
    each axis set to auto. D-JIL has no lambda axis: its lam is 0."""
    lam, gamma = args.lam, args.gamma
    if args.method == "djil":
        if lam not in ("auto", 0.0):
            raise _UsageError(f"--lambda must be auto or 0 with --method djil, got {lam}")
        lam = 0.0
    if lam == "auto" or gamma == "auto":
        grid = default_grid(d.n, args.seed, args.folds)
        if lam != "auto":
            grid = replace(grid, lambdas=(float(lam),))
        if gamma == "default":
            grid = replace(grid, gammas=(default_gamma(d.n),))
        elif gamma != "auto":
            grid = replace(grid, gammas=(float(gamma),))
        if args.method == "ljil":
            report = cv_select_ljil(d, m, grid)
        else:
            report = cv_select_djil(d, m, grid, cfg)
        return report.best_lambda, report.best_gamma
    if gamma == "default":
        gamma = default_gamma(d.n)
    return float(lam), float(gamma)


def cmd_fit(args) -> int:
    y, a_raw, X = _read_csv(args.data)
    d, a_min, a_max = _build_dataset(y, a_raw, X)
    m = make_grid(d.n, args.c)
    cfg = TrainConfig(seed=args.seed)
    lam, gamma = _resolve(d, m, args, cfg)
    if args.method == "ljil":
        fit = fit_ljil(d, m, lam, gamma)
    else:
        fit = fit_djil(d, m, gamma, cfg)
    prop = fit_propensity(d, fit.partition)
    value = estimate_value(d, I2dr(fit), prop, args.alpha)
    provenance = {
        "n": d.n,
        "p": d.p,
        "seed": args.seed,
        "created_at": _created_at(),
        "a_min": a_min,
        "a_max": a_max,
    }
    art = _artifact_dict(fit, prop, value, provenance)
    _atomic_write_text(args.out, _jtext(art) + "\n")
    _print_fit_report(fit, value, d)
    return 0


def _print_fit_report(fit: JilFit, value, d: Dataset) -> None:
    print(f"method {fit.method}")
    print(f"n {d.n}")
    print(f"p {d.p}")
    print(f"m {fit.m}")
    print(f"lambda {_fmt(fit.lam)}")
    print(f"gamma {_fmt(fit.gamma)}")
    print(f"objective {_fmt(fit.objective)}")
    print(f"segments {fit.partition.size}")
    cuts = fit.partition.boundaries()
    print("change_points " + (" ".join(_fmt(b) for b in cuts) if cuts else "-"))
    for iv, mod in zip(fit.partition.intervals, fit.models):
        closing = "]" if iv.hi == iv.m else ")"
        span = f"[{_fmt(iv.lo_frac)}, {_fmt(iv.hi_frac)}{closing}"
        if fit.method == "ljil":
            print(f"interval {span} theta " + " ".join(_fmt(t) for t in mod.theta))
        else:
            arch = "x".join(str(s) for s in mod.layer_sizes)
            print(f"interval {span} mlp {arch}")
    print(f"v_hat {_fmt(value.v_hat)}")
    print(f"sigma_hat {_fmt(value.sigma_hat)}")
    print(f"ci_lo {_fmt(value.ci_lo)} ci_hi {_fmt(value.ci_hi)} alpha {_fmt(value.alpha)}")


_PREFS = {
    "min": lambda seed: MinDose(),
    "max": lambda seed: MaxDose(),
    "mid": lambda seed: MidPoint(),
    "uniform": lambda seed: UniformRandom(seed),
}


def cmd_evaluate(args) -> int:
    fit, prop, p, seed, a_range = _decode_artifact(_load_artifact(args.model))
    y, a_raw, X = _read_csv(args.data)
    if X.shape[1] != p:
        raise SchemaMismatch(f"model was fit with p={p} covariates, data has p={X.shape[1]}")
    a = a_raw
    if a_range is not None:
        a_min, a_max = a_range
        bad = ~((a_raw >= a_min) & (a_raw <= a_max))
        if bad.any():
            row = int(np.argmax(bad))
            raise InvalidData(
                "treatments", row,
                f"treatment {_fmt(a_raw[row])} at row {row} is outside the fitted range "
                f"[{_fmt(a_min)}, {_fmt(a_max)}]",
            )
        a = (a_raw - a_min) / (a_max - a_min)
    d = Dataset(X, a, y)
    rule = I2dr(fit)
    value = estimate_value(d, rule, prop, args.alpha)
    if args.plot_data:
        idx = recommend_batch(rule, d.covariates)
        edges = np.array(fit.partition.edges())
        lo, hi = edges[idx], edges[idx + 1]
        doses = _doses(lo, hi, fit.m, _PREFS[args.pref](seed))
        rows = ["index\tlo\thi\tdose"]
        for i, (a, b, dose) in enumerate(zip(lo / fit.m, hi / fit.m, doses)):
            rows.append(f"{i}\t{_fmt(a)}\t{_fmt(b)}\t{_fmt(dose)}")
        _atomic_write_text(args.plot_data, "\n".join(rows) + "\n")
    print(_jtext(asdict(value)))
    return 0


def _jil_threads():
    """Worker count from JIL_THREADS: None when unset, else an integer >= 0."""
    env = os.environ.get("JIL_THREADS")
    if not env:
        return None
    if not env.strip().isdecimal():
        raise _UsageError(f"JIL_THREADS must be a non-negative integer, got {env!r}")
    return int(env)


def cmd_bench(args) -> int:
    workers = _jil_threads()
    res = replicate_table1(
        args.reps,
        args.n,
        args.seed,
        scenario=args.scenario,
        p=args.p,
        c=args.c,
        workers=workers,
        method=args.method,
    )
    row = {
        "scenario": str(args.scenario),
        "n": str(args.n),
        "reps": str(args.reps),
        "method": args.method,
    }
    for key in (
        "mean_v_hat",
        "mean_sigma_hat",
        "coverage_pct",
        "mean_segments",
        "mean_l2",
        "v_opt",
    ):
        row[key] = "nan" if res[key] is None else _fmt(res[key])
    print("\t".join(row))
    print("\t".join(row.values()))
    return 0


# ------------------------------------------------------------------ parser


def _flag(cast, ok, need, words=()):
    """An argparse type: one of the keywords in words (any case), or cast of
    the token when ok accepts the value; any other token is rejected with
    a message naming what the flag needs."""

    def parse(tok: str):
        t = tok.strip().lower()
        if t in words:
            return t
        try:
            v = cast(t)
        except ValueError:
            pass
        else:
            if ok(v):
                return v
        raise argparse.ArgumentTypeError(f"expected {need}, got {tok!r}")

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jil",
        description="Jump interval-learning: segmentation-based individualized "
        "interval dosing rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    count = _flag(int, lambda v: v >= 1, "a positive integer")
    folds = _flag(int, lambda v: v >= 2, "at least 2 folds")
    coarseness = _flag(float, lambda v: 0 < v < np.inf, "a finite real > 0")
    alpha = _flag(float, lambda v: 0 < v < 1, "a real in (0, 1)")
    lam = _flag(float, lambda v: 0 <= v < np.inf, "a finite real >= 0 or 'auto'", ("auto",))
    gamma = _flag(
        float, lambda v: 0 <= v < np.inf, "a finite real >= 0, 'auto' or 'default'",
        ("auto", "default"),
    )

    ps = sub.add_parser("simulate", help="draw a synthetic dosing dataset as CSV")
    ps.add_argument("--scenario", type=int, choices=range(1, 6), required=True)
    ps.add_argument("--n", type=count, required=True)
    ps.add_argument("--p", type=count, default=4)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_simulate)

    pf = sub.add_parser("fit", help="fit a segmentation on a CSV dataset")
    pf.add_argument("--data", required=True)
    pf.add_argument("--method", choices=("ljil", "djil"), default="ljil")
    pf.add_argument("--c", type=coarseness, default=5.0,
                    help="grid coarseness; m = floor(n / c)")
    pf.add_argument("--lambda", dest="lam", type=lam, default="auto",
                    help="ridge penalty, or 'auto' for cross-validation")
    pf.add_argument("--gamma", type=gamma, default="auto",
                    help="jump penalty, 'auto' for CV, 'default' for 4 log(n)/n")
    pf.add_argument("--folds", type=folds, default=5)
    pf.add_argument("--alpha", type=alpha, default=0.05)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--out", required=True)
    pf.set_defaults(func=cmd_fit)

    pe = sub.add_parser("evaluate", help="re-estimate a saved model's value on a CSV")
    pe.add_argument("--model", required=True)
    pe.add_argument("--data", required=True)
    pe.add_argument("--alpha", type=alpha, default=0.05)
    pe.add_argument("--pref", choices=("min", "max", "mid", "uniform"), default="mid")
    pe.add_argument("--plot-data", dest="plot_data", default=None,
                    help="write per-row recommended intervals and doses as TSV")
    pe.set_defaults(func=cmd_evaluate)

    pb = sub.add_parser("bench", help="replicate the simulation study at small scale")
    pb.add_argument("--scenario", type=int, choices=range(1, 6), default=1)
    pb.add_argument("--n", type=count, required=True)
    pb.add_argument("--p", type=count, default=4)
    pb.add_argument("--reps", type=count, required=True)
    pb.add_argument("--method", choices=("ljil", "djil"), default="ljil")
    pb.add_argument("--c", type=coarseness, default=5.0)
    pb.add_argument("--seed", type=int, default=0)
    pb.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return int(args.func(args))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (JilError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001  (contract: unexpected -> exit 3)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
