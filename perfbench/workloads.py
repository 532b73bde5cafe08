"""Workload definitions: every input the benchmark sends to lambda-osc.

Each generator takes the workload seed and returns plain data (lists of
dicts and strings), so the same seed always yields the same inputs and
the program receives nothing but those inputs.  Fractions travel as
"p/q" strings, deformation values of the numeric layers as floats.

Why these workloads:

* ``verify`` -- the cross-validation run users and the acceptance suite
  rely on; the classical stepper does most of its work here.
* ``cli-tables`` -- nine table subcommands at their defaults, each in its
  own process; dominated by interpreter start-up and package import,
  with cold quadrature in ``gram`` and ``wavefn --normalized``.
* ``exact-algebra`` -- pure ``Fraction`` work on the three polynomial
  routes and the ladder; never touches quadrature, SL or the stepper.
* ``lambda-sweep`` -- the numeric oracles over both signs of the
  deformation, stratified by regime; quadrature is the largest share, SL is
  measurable, the exact layers do almost nothing.
"""

import math
import random

WORKLOADS = ("verify", "cli-tables", "exact-algebra", "lambda-sweep")

# (label, CLI arguments); every subcommand at its defaults
CLI_TABLES = (
    ("spectrum", ["spectrum"]),
    ("potential", ["potential"]),
    ("polys", ["polys"]),
    ("polys_rodrigues",
     ["polys", "--lambda", "1/5", "--normalization", "rodrigues", "--ratios"]),
    ("wavefn", ["wavefn", "--normalized"]),
    ("gram", ["gram"]),
    ("sl", ["sl"]),
    ("ladder", ["ladder"]),
    ("classical", ["classical"]),
)

VERIFY = (("verify", ["verify"]),)

# -- inputs that fail at seed state ------------------------------------------
#
# The timed workloads draw no input from these classes, so that every timed
# operation succeeds at seed state.  The known-defect probe runs every entry
# below in each traced lambda-sweep run and reports how many still fail
# (per-layer ``known_failures`` and ``error_rate``), so a later fix shows as
# a drop there.  Entries: (entry point, lambda, levels, error at seed state,
# where the defect is described).
KNOWN_FAILURES = (
    ("gram_matrix", 0.05, None, "DivergentTailError",
     "ROADMAP item 2: every 0 < lambda <= 0.05"),
    ("gram_matrix", 0.02, None, "DivergentTailError", "ROADMAP item 2"),
    ("gram_matrix", 0.01, None, "DivergentTailError", "ROADMAP item 2"),
    ("gram_matrix", 0.001, None, "DivergentTailError", "ROADMAP item 2"),
    ("refine", 0.99, 2, "RefinementError", "ROADMAP item 4"),
    ("refine", 0.02, 50, "RefinementError", "ROADMAP item 4"),
    ("refine", 0.03, 34, "RefinementError", "ROADMAP item 4"),
    ("refine", -0.9, 7, "RefinementError", "not in ROADMAP"),
    ("refine", -0.8, 8, "RefinementError",
     "not in ROADMAP: k = 8 fails for every lambda in [-0.90, -0.73]"),
    ("refine", -0.001, 8, "RefinementError",
     "not in ROADMAP: k = 8 fails for -0.00112 <= lambda < 0"),
)

# Near-threshold points kept out of every run for machine safety: each
# needs the 8192-node Gauss-Legendre rule or more (a dense 8192 x 8192
# eigenproblem, about 0.5 GB and tens of seconds cold).  They belong to
# the lambda property suite of ROADMAP item 4, not to a timed loop.
EXCLUDED_FOR_SAFETY = (
    (1 / 3.1, "gram_matrix took 59 s cold at 8192 nodes"),
    (1 / 4.1, "gram_matrix went past 8192 nodes"),
    (1 / 8.25, "gram_matrix went past 8192 nodes"),
)

# Near-threshold points kept out of the timed sweep for steadiness: each
# needs the 4096-node rule, whose cold construction (a dense 4096 x 4096
# eigenproblem) took 4.2-5.7 s, most of a sweep iteration, on 2 vCPUs.
# With one of them in every iteration a 30 s run holds only 3-4
# iterations, too few for steady per-call latencies.  The timed sweep
# reaches the 2048-node rule in every iteration instead.
KEPT_OUT_FOR_STEADINESS = (
    (1 / 2.1, "4096-node rule; gram_matrix 4.2-5.7 s cold"),
    (1 / 5.3, "4096-node rule; gram_matrix 5.1-5.6 s cold"),
)


def cli_tables(seed: int):
    """The nine subcommands in a seed-dependent order."""
    order = list(CLI_TABLES)
    random.Random(seed).shuffle(order)
    return order


def verify(seed: int):
    return list(VERIFY)


def exact_algebra(seed: int):
    """Cases for the exact routes; every seed does the same amount of work.

    A case is a degree n and a deformation: "generic" (coefficients are
    polynomials in lambda) or a fixed rational "p/q".  Fraction work grows
    with the size of the denominator, so each degree of the fixed grid comes
    with a fixed denominator (negative lambda) or numerator (positive
    lambda), and the seed draws only the other part of the fraction and the
    order.  For lambda > 0 the degree stays inside the bound range
    n < 1/lambda, where the generating route cannot vanish.
    """
    rng = random.Random(seed)
    cases = [{"lam": "generic", "n": n} for n in (20, 28, 36, 44)]
    fixed = 32
    for i in range(fixed):
        n = 8 + (52 * i) // (fixed - 1)
        if i % 2:
            q = 2 + (i // 2) % 11
            a = rng.choice([a for a in range(1, q) if math.gcd(a, q) == 1])
            lam = f"-{a}/{q}"
        else:
            p = 1 + (i // 2) % 3
            r = rng.choice([r for r in range(1, 41) if math.gcd(r, p) == 1])
            lam = f"{p}/{p * (n + 1) + r}"
        cases.append({"lam": lam, "n": n})
    rng.shuffle(cases)
    return cases


def lambda_sweep(seed: int):
    """About sixteen deformations over both signs, stratified by regime.

    Each point carries the refine level count min(bound count, 8), whether
    gram_matrix runs there, and the classical amplitude.
    """
    rng = random.Random(seed)
    lams = []
    # mid-gap: 1/(k + delta); every k <= 8 needs at most the 2048-node
    # rule for delta in [0.5, 0.65], nearer 1/k some need 4096
    for k in rng.sample(range(1, 9), 5):
        lams.append(("mid_gap", 1.0 / (k + rng.uniform(0.5, 0.65))))
    for i in range(5):  # negative, one draw per stratum of [0.06, 0.65]
        lams.append(("negative", -(0.06 + 0.118 * (i + rng.random()))))
    lams.append(("near_threshold", 1 / 1.25))  # both need the 2048-node rule
    lams.append(("near_threshold", 1 / 2.25))
    for i in range(2):  # small |lambda|, log-uniform
        lams.append(("small", -10 ** rng.uniform(-2.8, -1.3)))
        lams.append(("small", 10 ** rng.uniform(-3.0, -1.3)))
    points = []
    for stratum, lam in lams:
        levels = 8 if lam < 0 else min(math.ceil(1.0 / lam), 8)
        amp = rng.uniform(0.3, 1.0)
        if lam < 0:
            amp = min(amp, (0.5 / -lam) ** 0.5)
        points.append({
            "stratum": stratum,
            "lam": lam,
            "levels": levels,
            # gram_matrix at 0 < lambda <= 0.05 is a recorded known failure
            "gram": not 0 < lam <= 0.05,
            "amplitude": amp,
        })
    return points


def known_failures():
    return [
        {"entry": entry, "lam": lam, "levels": levels, "error": error}
        for entry, lam, levels, error, _where in KNOWN_FAILURES
    ]


GENERATORS = {
    "verify": verify,
    "cli-tables": cli_tables,
    "exact-algebra": exact_algebra,
    "lambda-sweep": lambda_sweep,
}
