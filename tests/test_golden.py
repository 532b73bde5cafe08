"""Exact-arithmetic CLI outputs compared byte for byte with stored copies.

The golden files hold the stdout of each command below.  They cover the
``polys`` and ``ladder`` tables only: those are exact rational output and
do not depend on LAPACK or floating-point summation order.  To regenerate
a file after a deliberate output change, run the command, e.g.

    PYTHONPATH=src python -m lambda_osc.cli polys > tests/golden/polys.csv
"""

from pathlib import Path

import pytest

from lambda_osc.cli import main

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
