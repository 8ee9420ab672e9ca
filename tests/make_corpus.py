"""The committed fit corpus: what a fixed set of fits returns.

    PYTHONPATH=src python tests/make_corpus.py

rewrites tests/corpus.json from the library in src/. Entries cover
scenarios 1-5 x seeds 0-1 x n in {120, 400, 1000} (p = 4, m = n/5) x
lambda in {0, 1e-2} x gamma in {1/4, 1} x default_gamma(n): each holds the
fit's edges, the cost of each of its intervals and its objective as
float.hex(), and its theta. The objective sums the costs, and can absorb a
last-bit change of a small one, so the costs are kept too. The lambda = 0,
default-gamma entries also hold default_grid CV (seed 0) scores as hex and
its choice, and the AIPW value estimate v_hat and sigma_hat (alpha = 0.05)
of that fit. Five more entries come first in the file (CERTIFIED):
scenarios 1 and 3 at n = 4000 and scenario 1 at n = 2000, seed 7, default
gamma, with the same fields. They are large enough that the DP's dominance
certificate runs in their fits and CV, which no entry of the grid reaches.
test_corpus.py recomputes every entry and compares. A change that moves
results on purpose rewrites the file with this script and names the moved
entries; any other change leaves the file as it is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import jil
from jil.cost import CostCache

PATH = Path(__file__).resolve().parent / "corpus.json"
SCENARIOS = (1, 2, 3, 4, 5)
SEEDS = (0, 1)
SIZES = (120, 400, 1000)
LAMBDAS = (0.0, 1e-2)
GAMMA_FACTORS = (0.25, 1.0)
# (scenario, seed, n, lam, gamma factor): fits whose DP certifies candidates;
# first in the file, so adding them changed no line of the entries above
CERTIFIED = [(s, 7, 4000, lam, 1.0) for s in (1, 3) for lam in LAMBDAS] + [(1, 7, 2000, 0.0, 1.0)]


def entry(scenario: int, seed: int, n: int, lam: float, factor: float) -> dict:
    """One corpus entry, computed by the library."""
    d, _ = jil.gen_scenario(jil.ScenarioSpec(scenario, n, 4, seed))
    m = jil.make_grid(n, 5.0)
    fit = jil.fit_ljil(d, m, lam, factor * jil.default_gamma(n))
    cost = CostCache(d, m, lambdas=(lam,), precompute=True).costfn(lam)
    out = {
        "scenario": scenario, "seed": seed, "n": n, "lam": lam, "gamma_factor": factor,
        "edges": [iv.lo for iv in fit.partition.intervals] + [m],
        "costs": [cost(iv.lo, iv.hi).hex() for iv in fit.partition.intervals],
        "objective": fit.objective.hex(),
        "theta": [model.theta.tolist() for model in fit.models],
    }
    if lam == 0.0 and factor == 1.0:
        cv = jil.cv_select_ljil(d, m, jil.default_grid(n, 0))
        value = jil.estimate_value(d, jil.I2dr(fit), jil.fit_propensity(d, fit.partition), 0.05)
        out["cv"] = {
            "scores": [[s.hex() for s in row] for row in cv.scores.tolist()],
            "best_lambda": cv.best_lambda,
            "best_gamma": cv.best_gamma.hex(),
        }
        out["v_hat"], out["sigma_hat"] = value.v_hat, value.sigma_hat
    return out


def keys():
    """Every entry's (scenario, seed, n, lam, gamma factor), in file order."""
    return CERTIFIED + [(s, seed, n, lam, f) for s in SCENARIOS for seed in SEEDS for n in SIZES
                        for lam in LAMBDAS for f in GAMMA_FACTORS]


def main() -> int:
    corpus = [entry(*key) for key in keys()]
    # one entry per line, so a diff names the entries a change moves
    lines = ",\n".join(json.dumps(e) for e in corpus)
    PATH.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(corpus)} entries to {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
