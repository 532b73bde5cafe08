"""Child process of the benchmark; every run starts it afresh.

    worker.py import MODULE               time one cold import, print JSON
    worker.py cli LABEL SUMMARY ARGS...   run the CLI with tracing on
    worker.py library INPUTS RESULTS 0|1  run one library-workload iteration

A fresh interpreter per iteration keeps lazy imports and
``quadrature._NODE_CACHE`` cold, as they are for a CLI user.  Each mode
imports the package before anything else it needs, so the timed import
finds no module preloaded that a CLI user would not have.
"""

import sys
import time

perf = time.perf_counter


def timed_import(module):
    before = len(sys.modules)
    t0 = perf()
    __import__(module)
    return {
        "import_s": perf() - t0,
        "modules": len(sys.modules) - before,
        "scipy_linalg": int("scipy.linalg" in sys.modules),
    }


def blas_threads():
    """Thread count OpenBLAS runs with in this process, or None."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cmd_import(module):
    info = timed_import(module)
    import json

    info["blas_threads"] = blas_threads()
    print(json.dumps(info))
    return 0


def cmd_cli(label, summary_path, argv):
    info = timed_import("lambda_osc.cli")
    import json

    import lambda_osc.cli as cli
    import tracer

    t = tracer.Tracer()
    tracer.install(t, cli_label=label)
    try:
        return cli.main(argv)
    finally:
        with open(summary_path, "w") as fh:
            json.dump({"import": info, "trace": t.summary()}, fh)


class Runner:
    """Times each call, validates its result, and records the outcome."""

    def __init__(self):
        self.ops = []  # [name, seconds, problem or None]
        self.check_s = 0.0

    def __call__(self, name, call, check):
        t0 = perf()
        try:
            result = call()
        except Exception as exc:  # every failure is counted, never fatal
            self.ops.append([name, perf() - t0, type(exc).__name__])
            return None
        t1 = perf()
        problem = check(result)
        self.check_s += perf() - t1
        self.ops.append([name, t1 - t0, problem and f"invalid: {problem}"])
        return None if problem else result


def exact_case(run, case):
    """One degree and deformation through the three routes and the ladder."""
    from fractions import Fraction

    from lambda_osc import (PhysicalParams, build_state, generating_coeffs,
                            ladder_energies, proportionality, rodrigues,
                            series_solution)
    import validate

    n = case["n"]
    lam = None if case["lam"] == "generic" else Fraction(case["lam"])
    gen = run("generating_coeffs", lambda: generating_coeffs(n, lam),
              lambda r: validate.hermite_poly(r[n], n, lam))
    ser = run("series_solution", lambda: series_solution(n, lam),
              lambda r: validate.hermite_poly(r, n, lam))
    if gen and ser:
        run("proportionality", lambda: proportionality(ser, gen[n]),
            lambda c: validate.proportional(ser, gen[n], c))
    if lam is None:
        return
    rod = run("rodrigues", lambda: rodrigues(n, lam),
              lambda r: validate.hermite_poly(r, n, lam))
    if gen and rod:
        run("proportionality", lambda: proportionality(rod, gen[n]),
            lambda c: validate.proportional(rod, gen[n], c))
    run("build_state", lambda: build_state(n, lam),
        lambda st: validate.hermite_poly(st.poly, n, lam))
    p = PhysicalParams(m=Fraction(1), alpha=Fraction(1), hbar=Fraction(1),
                       lam=lam)
    run("ladder_energies", lambda: ladder_energies(p, n),
        lambda es: validate.ladder_energies(es, n, lam))


def _gram_size(lam):
    import math

    return 9 if lam < 0 else min(9, math.ceil(1.0 / lam))


def sweep_point(run, pt):
    """gram, refine, nodes per level and a 5-period probe at one lambda."""
    from lambda_osc import (gram_matrix, measure_period, nodes, refine,
                            wavefunction)
    import validate

    lam, k, amp = pt["lam"], pt["levels"], pt["amplitude"]
    if pt["gram"]:
        run("gram_matrix", lambda: gram_matrix(lam, max_index=8),
            lambda g: validate.gram(g, _gram_size(lam)))
    run("refine", lambda: refine(lam, k, tol=1e-6)[0],
        lambda v: validate.levels(v, lam, k))
    for m in range(k):
        run("nodes", lambda: nodes(wavefunction(m, lam)),
            lambda r: validate.nodes(r, m, lam))
    run("measure_period",
        lambda: measure_period(1.0, lam, amp, n_periods=5,
                               steps_per_period=10_000),
        lambda p: validate.period(p, lam, amp))


def known_failure(run, item):
    from lambda_osc import gram_matrix, refine
    import validate

    lam, k = item["lam"], item["levels"]
    if item["entry"] == "gram_matrix":
        run("gram_matrix", lambda: gram_matrix(lam, max_index=8),
            lambda g: validate.gram(g, _gram_size(lam)))
    else:
        run("refine", lambda: refine(lam, k, tol=1e-6)[0],
            lambda v: validate.levels(v, lam, k))


STEPS = {
    "exact-algebra": exact_case,
    "lambda-sweep": sweep_point,
    "known-failures": known_failure,
}


def cmd_library(inputs_path, results_path, trace):
    info = timed_import("lambda_osc")
    import json

    with open(inputs_path) as fh:
        job = json.load(fh)
    t = None
    if trace == "1":
        import tracer

        t = tracer.Tracer()
        tracer.install(t)
    run = Runner()
    step = STEPS[job["workload"]]
    for item in job["items"]:
        step(run, item)
    with open(results_path, "w") as fh:
        json.dump({"import": info, "ops": run.ops, "check_s": run.check_s,
                   "trace": t.summary() if t else None}, fh)
    return 0


def main(argv):
    mode = argv[0]
    if mode == "import":
        return cmd_import(argv[1])
    if mode == "cli":
        return cmd_cli(argv[1], argv[2], argv[3:])
    if mode == "library":
        return cmd_library(argv[1], argv[2], argv[3])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
