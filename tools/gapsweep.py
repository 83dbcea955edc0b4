"""Criterion 7's held-out gap over twenty seeds: a report, not a gate.

    python3 tools/gapsweep.py

Criterion 7 trains BCA and BCAInvar on the synthetic domain-shift corpus of
tests/domainshift.py for seeds 0-4 and passes when BCAInvar's held-out
accuracy beats BCA's by at least 0.05 on 4 of the 5 seeds. The held-out set
has 80 tweets, so one example moves a gap by 0.0125, and a change in
summation order can flip a seed. This script asks whether the gradient
reversal layer shifts the gap distribution or rounding decides the verdict.
It runs seeds 0-19 in three sweeps:

- float32, lambda 2: criterion 7's own setting; its seeds 0-4 are the first
  five rows;
- float64, lambda 2: the same runs in double precision;
- float32, lambda 0: the control. Without the adversarial term BCAInvar
  trains the same stance path as BCA (criterion 8), so every gap is 0.

For each sweep it prints every seed's gap (BCAInvar minus BCA held-out
accuracy), the number of seeds with a gap of at least 0.05, the median gap,
and a one-sided sign-test p-value: the chance of at least this many positive
gaps if a nonzero gap were equally likely to have either sign; zero gaps
are dropped. The output is a Markdown table. Criterion 7 itself, its five
seeds, its 0.05 threshold and its 4-of-5 rule, is unchanged, and the script
exits 0 whatever the gaps are.

BLAS runs on one thread, as in tools/bitcheck.py. BCA has no domain heads,
so lambda never reaches it and each seed trains it once per precision: 100
trainings in all, about 5 minutes on a 2-core x86-64 host.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
from pathlib import Path

if __name__ == "__main__":
    # before numpy loads BLAS; importing this module changes no setting
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]
import domainshift  # noqa: E402  (tests/domainshift.py, the synthetic corpus)

SEEDS = range(20)
THRESHOLD = 0.05  # criterion 7's
# (column heading, model precision, adversarial weight lambda)
SWEEPS = (
    ("float32, λ=2", np.float32, 2.0),
    ("float64, λ=2", np.float64, 2.0),
    ("float32, λ=0 (control)", np.float32, 0.0),
)


def sign_test_p(gaps: list[float]) -> float:
    """One-sided sign test: P(X >= positives) for X ~ Binomial(n, 1/2),
    where n counts the nonzero gaps."""
    positives = sum(g > 0 for g in gaps)
    n = sum(g != 0 for g in gaps)
    return sum(math.comb(n, k) for k in range(positives, n + 1)) / 2**n


def summary_rows(columns: list[list[float]]) -> list[list[str]]:
    """The rows under the per-seed gaps, one cell per sweep."""
    return [
        ["gap ≥ 0.05"] + [f"{sum(g >= THRESHOLD for g in c)}/{len(c)}" for c in columns],
        ["positive / negative / zero"]
        + [f"{sum(g > 0 for g in c)} / {sum(g < 0 for g in c)} / {sum(g == 0 for g in c)}" for c in columns],
        ["median gap"] + [f"{statistics.median(c):+.4f}" for c in columns],
        ["sign test p (one-sided)"] + [f"{sign_test_p(c):.2g}" for c in columns],
    ]


def markdown(rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(row) + " |" for row in rows]
    lines.insert(1, "|" + "---|" * len(rows[0]))
    return "\n".join(lines)


def sweep_gaps() -> list[list[float]]:
    """gaps[i][j]: seed SEEDS[i] under SWEEPS[j]."""
    gaps = []
    for seed in SEEDS:
        train_c, dev_c, held_c, emb = domainshift.build(seed)

        def accuracy(variant, dtype, lam):
            return domainshift.run_experiment(
                seed, variant, emb, train_c, dev_c, held_c, lam=lam, dtype=dtype
            )

        plain = {dtype: accuracy("BCA", dtype, 2.0) for dtype in dict.fromkeys(d for _, d, _ in SWEEPS)}
        gaps.append([accuracy("BCAInvar", dtype, lam) - plain[dtype] for _, dtype, lam in SWEEPS])
        print(f"seed {seed}: " + " ".join(f"{g:+.4f}" for g in gaps[-1]), file=sys.stderr, flush=True)
    return gaps


def main() -> int:
    gaps = sweep_gaps()
    columns = [list(c) for c in zip(*gaps)]
    rows = [["seed"] + [heading for heading, _, _ in SWEEPS]]
    rows += [[str(seed)] + [f"{g:+.4f}" for g in row] for seed, row in zip(SEEDS, gaps)]
    print(markdown(rows + summary_rows(columns)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
