"""Exact-arithmetic CLI outputs compared byte for byte with stored copies.

The golden files hold the stdout of each command below.  They cover the
``polys`` and ``ladder`` tables only: those are exact rational output and
do not depend on LAPACK or floating-point summation order.  To regenerate
a file after a deliberate output change, run the command, e.g.

    PYTHONPATH=src python -m lambda_osc.cli polys > tests/golden/polys.csv

``exact_high_degree.json`` pins library outputs too large to store: the
sha256 of ``str(rodrigues(n, lam))`` and of ``str(build_state(n,
lam).poly)`` at 32 fixed rational deformations, degrees 8 to 60.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from lambda_osc.cli import main
from lambda_osc.factorization import build_state
from lambda_osc.hermite import rodrigues

GOLDEN = Path(__file__).parent / "golden"

# (golden file, CLI arguments)
CASES = [
    ("polys.csv", ["polys"]),
    ("polys_series_nmax12.csv",
     ["polys", "--normalization", "series", "--nmax", "12"]),
    ("polys_rodrigues_1_5_ratios.csv",
     ["polys", "--lambda", "1/5", "--normalization", "rodrigues", "--ratios"]),
    ("polys_m3_7_nmax12_ratios.csv",
     ["polys", "--lambda=-3/7", "--nmax", "12", "--ratios"]),
    ("ladder.csv", ["ladder"]),
    ("ladder_m1_10_nmax12.csv", ["ladder", "--lambda=-1/10", "--nmax", "12"]),
    ("ladder.json", ["ladder", "--format", "json"]),
]


# the negative fractions above, written after a space as users type them
SPACED = [
    ("polys_m3_7_nmax12_ratios.csv",
     ["polys", "--lambda", "-3/7", "--nmax", "12", "--ratios"]),
    ("ladder_m1_10_nmax12.csv", ["ladder", "--lambda", "-1/10", "--nmax", "12"]),
]


@pytest.mark.parametrize(
    "name, argv", CASES + SPACED,
    ids=[c[0] for c in CASES] + ["spaced-" + c[0] for c in SPACED])
def test_output_matches_golden(name, argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


# (lambda, n): one rational deformation per degree of the grid 8..60, with
# growing numerators (lambda > 0, inside n < 1/lambda) and denominators
HIGH_DEGREE = [
    ("1/18", 8), ("-1/2", 9), ("2/41", 11), ("-1/3", 13), ("3/68", 14),
    ("-3/4", 16), ("1/50", 18), ("-4/5", 19), ("2/57", 21), ("-1/6", 23),
    ("3/98", 24), ("-1/7", 26), ("1/54", 28), ("-7/8", 29), ("2/103", 31),
    ("-1/9", 33), ("3/139", 34), ("-9/10", 36), ("1/57", 38), ("-4/11", 39),
    ("2/121", 41), ("-1/12", 43), ("3/151", 44), ("-1/2", 46), ("1/51", 48),
    ("-1/3", 49), ("2/139", 51), ("-1/4", 53), ("3/184", 54), ("-2/5", 56),
    ("1/87", 58), ("-1/6", 60),
]


def _sha(poly):
    return hashlib.sha256(str(poly).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def high_degree_golden():
    rows = json.loads((GOLDEN / "exact_high_degree.json").read_text())
    return {(r["lam"], r["n"]): r for r in rows}


def test_high_degree_golden_holds_the_listed_pairs(high_degree_golden):
    assert sorted(high_degree_golden) == sorted(HIGH_DEGREE)


@pytest.mark.parametrize("lam, n", HIGH_DEGREE,
                         ids=[f"{lam}-{n}" for lam, n in HIGH_DEGREE])
def test_high_degree_exact_outputs(lam, n, high_degree_golden):
    row = high_degree_golden[(lam, n)]
    assert _sha(rodrigues(n, Fraction(lam))) == row["rodrigues"]
    assert _sha(build_state(n, Fraction(lam)).poly) == row["build_state"]
