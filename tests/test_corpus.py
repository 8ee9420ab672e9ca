"""The library reproduces the committed fit corpus (tests/corpus.json).

Edges, interval costs, objectives, CV scores and CV choices must match
exactly. theta, v_hat and sigma_hat pass through LAPACK eigh or the
propensity's Newton solve, whose bits can differ between BLAS builds, so
they match within 1e-12 of their size. A change that moves results on
purpose rewrites the corpus with tests/make_corpus.py and names the moved
entries. The CERTIFIED entries must also run the DP's dominance
certificate in their fits, so the corpus pins certified bits too.
"""

from __future__ import annotations

import json

import numpy as np

import jil.cost
import jil.fit
from make_corpus import CERTIFIED, PATH, entry, keys

_RTOL = 1e-12


def _close(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    return bool(np.all(np.abs(got - want) <= _RTOL * np.max(np.abs(want), initial=0.0)))


def _mismatches(got: dict, want: dict) -> list:
    exact = [k for k in ("edges", "costs", "objective", "cv") if got.get(k) != want.get(k)]
    close = [k for k in ("v_hat", "sigma_hat") if (k in got) != (k in want)
             or k in want and not _close(got[k], want[k])]
    if len(got["theta"]) != len(want["theta"]) or not all(
            _close(g, w) for g, w in zip(got["theta"], want["theta"])):
        close.append("theta")
    return exact + close


def test_corpus_reproduces(monkeypatch):
    # count the certificate's kernel calls (one per certificate call) made
    # inside each entry's lone fit, the one pelt call of jil.fit
    checks, fit_checks = [0], []
    schur, pelt = jil.cost._schur, jil.fit.pelt

    def counted_schur(S):
        checks[0] += 1
        return schur(S)

    def counted_pelt(*args, **kwargs):
        before = checks[0]
        result = pelt(*args, **kwargs)
        fit_checks.append(checks[0] - before)
        return result

    monkeypatch.setattr(jil.cost, "_schur", counted_schur)
    monkeypatch.setattr(jil.fit, "pelt", counted_pelt)
    corpus = json.loads(PATH.read_text(encoding="utf-8"))
    assert [(e["scenario"], e["seed"], e["n"], e["lam"], e["gamma_factor"]) for e in corpus] == keys()
    moved, uncertified = [], []
    for key, want in zip(keys(), corpus):
        fit_checks.clear()
        fields = _mismatches(entry(*key), want)
        name = f"scenario {key[0]} seed {key[1]} n {key[2]} lam {key[3]} gamma x{key[4]}"
        if fields:
            moved.append(f"{name}: {', '.join(fields)}")
        if key in CERTIFIED and not (len(fit_checks) == 1 and fit_checks[0] > 0):
            uncertified.append(f"{name}: {fit_checks}")
    assert not moved, "corpus entries moved:\n" + "\n".join(moved)
    assert not uncertified, "fits that never ran the certificate:\n" + "\n".join(uncertified)


def _ulp_up(x: str) -> str:
    return np.nextafter(float.fromhex(x), np.inf).hex()


def test_corpus_check_names_a_one_ulp_objective():
    want = json.loads(PATH.read_text(encoding="utf-8"))[0]
    got = dict(want, objective=_ulp_up(want["objective"]))
    assert _mismatches(got, want) == ["objective"]
    got = dict(want, costs=want["costs"][:-1] + [_ulp_up(want["costs"][-1])])
    assert _mismatches(got, want) == ["costs"]
    theta = np.array(want["theta"][0])
    got = dict(want, theta=[(theta * (1 + 1e-9)).tolist()] + want["theta"][1:])
    assert _mismatches(got, want) == ["theta"]
    assert _mismatches(want, want) == []
