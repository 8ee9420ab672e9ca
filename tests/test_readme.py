"""The README's library quick start runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs(capsys):
    scope = {}
    exec(compile(quick_start(), str(README), "exec"), scope)
    fit, rule, report = scope["fit"], scope["rule"], scope["report"]
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == str(fit.partition.boundaries())
    assert printed[1] == str(rule.recommend(scope["np"].zeros(4)))
    assert fit.partition.size == 3  # the comment's ~[0.35, 0.65]
    assert all(abs(b - t) <= 0.05 for b, t in zip(fit.partition.boundaries(), (0.35, 0.65)))
    assert report.ci_lo <= report.v_hat <= report.ci_hi
