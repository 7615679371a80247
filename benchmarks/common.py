"""Printing helpers shared by the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures and prints
the measured rows/series next to the paper's published values, so a run's
output can be compared to the paper by eye.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.workload.validation import paper_claim, validate


#: Narration collected during the run; the benchmarks' conftest flushes it
#: through the terminal reporter at session end, because pytest's capture
#: would otherwise swallow the paper-vs-measured output of passing tests.
NARRATION: List[str] = []


def echo(line: str = "") -> None:
    """Print a narration line and queue it for the end-of-run summary."""
    print(line)
    NARRATION.append(str(line))


def heading(name: str, paper_note: str) -> None:
    echo(f"\n=== {name} ===")
    echo(f"paper: {paper_note}")


def assert_claim(dataset, name: str) -> None:
    """Print and assert the paper claim ``name`` on ``dataset`` with
    ``validate``'s measure and bound (tighter on a bench-volume trace)."""
    claim = paper_claim(name)
    check = next(c for c in validate(dataset).checks if c.name == name)
    value = check.measured * (100 if claim.unit == "%" else 1)
    echo(f"  {name}: paper {claim.text} | measured {value:,.4g}{claim.unit}")
    assert check.passed, str(check)


def print_series(name: str, values: np.ndarray, points: int = 8) -> None:
    """Print a daily series at evenly spaced sample days."""
    values = np.asarray(values)
    if len(values) == 0:
        echo(f"{name}: (empty)")
        return
    idx = np.linspace(0, len(values) - 1, points).astype(int)
    samples = ", ".join(f"d{int(i)}={values[i]:.3g}" for i in idx)
    echo(f"{name}: {samples}")


def print_bands(name: str, bands) -> None:
    echo(f"{name}: day-median of [p5, p25, median, p75, p95] = "
          f"[{np.median(bands.p5):.3g}, {np.median(bands.p25):.3g}, "
          f"{np.median(bands.median):.3g}, {np.median(bands.p75):.3g}, "
          f"{np.median(bands.p95):.3g}]")


def print_ecdf(name: str, ecdf, xs: Sequence[float]) -> None:
    if ecdf.n == 0:
        echo(f"{name}: (empty)")
        return
    points = ", ".join(f"F({x:g})={ecdf(x):.3f}" for x in xs)
    echo(f"{name} (n={ecdf.n}): {points}")


def print_top(name: str, counts: Dict, k: int = 8) -> None:
    top = sorted(counts.items(), key=lambda kv: -kv[1])[:k]
    echo(f"{name}: " + ", ".join(f"{key}={value}" for key, value in top))
