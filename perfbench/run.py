"""Benchmark for lambda-osc, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--out FILE]

One workload per run: a closed loop with a single client that starts one
fresh process per iteration (the CLI as ``python -m lambda_osc.cli`` with
PYTHONPATH=src, or ``worker.py`` for the library workloads), waits for it,
validates what it produced, and starts the next, until ``--seconds`` have
passed.  Each child runs under a 3 GiB address-space ceiling and a
deadline, so a runaway node doubling fails as a counted error instead of
exhausting the machine.

The last line of standard output is the result, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Standard error carries the machine record and the run's details.
``--all`` runs every workload both ways and prints a table.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import validate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = str(HERE / "worker.py")
MEMORY_CEILING = 3 << 30
CHILD_DEADLINE_S = 60.0
RUN_LIMIT_S = 150.0  # no child starts or outlives this point of a run
SETUP_PROBES = 3

CLI_WORKLOADS = {"verify", "cli-tables"}

PER_LAYER = (
    ("import.lambda_osc_s", "s"), ("import.modules", "count"),
    ("import.scipy_linalg", "count"),
    *((f"cli.{label}_s", "s") for label, _ in workloads.CLI_TABLES),
    ("output.emit_s", "s"), ("output.bytes", "bytes"),
    *((f"verification.{name}_s", "s") for name in (
        "check_polynomial_tables", "check_route_equivalence",
        "check_spectrum_values", "check_bound_counts", "check_sl_crossval",
        "check_gram", "check_ladder", "check_commutator",
        "check_eigen_equation", "check_classical",
        "check_small_deformation_continuity")),
    ("classical.measure_period_s", "s"), ("classical.integrate_s", "s"),
    ("classical.steps", "count"), ("classical.ns_per_step", "ns"),
    ("quadrature.integrate_measure_s", "s"), ("quadrature.calls", "count"),
    ("quadrature.integrand_s", "s"), ("quadrature.self_s", "s"),
    ("quadrature.points", "count"), ("quadrature.failed", "count"),
    ("wavefunctions.gram_matrix_s", "s"), ("wavefunctions.norm_constant_s", "s"),
    ("wavefunctions.nodes_s", "s"),
    ("sturm_liouville.refine_s", "s"), ("sturm_liouville.eigenvalues_s", "s"),
    ("sturm_liouville.grids", "count"), ("sturm_liouville.max_grid", "count"),
    ("sturm_liouville.failed", "count"),
    ("hermite.generating_coeffs.generic_s", "s"),
    ("hermite.generating_coeffs.fixed_s", "s"),
    ("hermite.series_solution.generic_s", "s"),
    ("hermite.series_solution.fixed_s", "s"),
    ("hermite.rodrigues_s", "s"), ("hermite.proportionality_s", "s"),
    ("hermite.max_degree", "count"), ("factorization.build_state_s", "s"),
    ("factorization.apply_calls", "count"), ("spectrum.ladder_energies_s", "s"),
    ("trace.overhead_s", "s"), ("error_rate", "ratio"),
    ("known_failures", "count"),
)

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("ops_per_s", "1/s"),
    ("op_p50_s", "s"), ("op_p90_s", "s"), ("peak_rss_mb", "MB"),
)


# -- child processes ----------------------------------------------------------


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CEILING, MEMORY_CEILING))


@dataclass
class Child:
    """One finished child: wall seconds, peak RSS, and what went wrong."""

    wall: float
    peak_mb: float
    problem: str | None
    stdout: bytes


def spawn(argv, out_path, deadline):
    """Run a child to completion under the memory ceiling and a deadline.

    The child is reaped with wait4, which gives its own peak RSS.
    """
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=_child_env(), preexec_fn=_limit_memory)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(max(deadline, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    problem = None
    if killed.is_set():
        problem = f"deadline of {deadline:.0f} s exceeded"
    elif code != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        problem = f"exit code {code}: {' '.join(tail)}"
    return Child(wall, usage.ru_maxrss / 1024.0, problem, out_path.read_bytes())


# -- one run ------------------------------------------------------------------


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload, seed, seconds, trace, tmp):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.tmp = trace, Path(tmp)
        self.items = workloads.GENERATORS[workload](seed)
        self.start = time.perf_counter()
        self.first_output = {}
        self.failures = []
        self.known = []  # known-defect probe ops (traced lambda-sweep only)

    def remaining(self):
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def deadline(self):
        return min(CHILD_DEADLINE_S, self.remaining())

    def setup(self):
        """Cold import of the package, several times; median reported."""
        module = "lambda_osc.cli" if self.workload in CLI_WORKLOADS \
            else "lambda_osc"
        probes = []
        for i in range(SETUP_PROBES):
            child = spawn([sys.executable, WORKER, "import", module],
                          self.tmp / f"import{i}.out", self.deadline())
            if child.problem:
                raise RuntimeError(f"import probe failed: {child.problem}")
            probes.append(json.loads(child.stdout))
        return probes

    def iteration(self, traced):
        if self.workload in CLI_WORKLOADS:
            return self._cli_iteration(traced)
        return self._library_iteration(self.workload, self.items, traced)

    def _cli_iteration(self, traced):
        it = {"wall": 0.0, "ops": [], "peak_mb": 0.0, "traces": [],
              "bytes": 0}
        for label, argv in self.items:
            out = self.tmp / f"{label}.out"
            summary = self.tmp / f"{label}.trace.json"
            if traced:
                cmd = [sys.executable, WORKER, "cli", label, str(summary)]
            else:
                cmd = [sys.executable, "-m", "lambda_osc.cli"]
            child = spawn(cmd + argv, out, self.deadline())
            problem = child.problem or validate.cli_output(label, child.stdout)
            ref = self.first_output.setdefault(label, child.stdout)
            if not problem and child.stdout != ref:
                problem = "output differs from the run's first output"
            it["wall"] += child.wall
            it["peak_mb"] = max(it["peak_mb"], child.peak_mb)
            it["bytes"] += len(child.stdout)
            it["ops"].append((label, child.wall, problem))
            if traced and not child.problem:
                it["traces"].append(json.loads(summary.read_text()))
        return it

    def _library_iteration(self, workload, items, traced):
        inputs = self.tmp / "inputs.json"
        results = self.tmp / "results.json"
        inputs.write_text(json.dumps({"workload": workload, "items": items}))
        results.unlink(missing_ok=True)
        child = spawn([sys.executable, WORKER, "library", str(inputs),
                       str(results), "1" if traced else "0"],
                      self.tmp / "library.out", self.deadline())
        it = {"wall": child.wall, "ops": [], "peak_mb": child.peak_mb,
              "traces": [], "bytes": 0}
        if child.problem:
            it["ops"].append((workload, child.wall, child.problem))
            return it
        res = json.loads(results.read_text())
        it["wall"] -= res["check_s"]  # validation is the benchmark's time
        it["ops"] = [tuple(op) for op in res["ops"]]
        if traced:
            it["traces"].append(res)
        return it

    def probe_known_failures(self):
        """Re-run the inputs recorded as failing at seed state."""
        self.known = self._library_iteration(
            "known-failures", workloads.known_failures(), False)["ops"]

    def loop(self):
        """Closed loop for --seconds: another unit starts only if it is
        expected to end nearer the target than stopping now would.  A unit
        is one iteration, or in a traced run an untraced and a traced
        iteration in turn, so both halves see the same conditions."""
        plain, traced = [], []
        t0 = time.perf_counter()
        unit_start = last_unit = 0.0
        while self.remaining() > 0:
            need_traced = self.trace and len(traced) < len(plain)
            now = time.perf_counter() - t0
            if not need_traced:
                last_unit, unit_start = now - unit_start, now
                if plain and now + last_unit / 2 >= self.seconds:
                    break
            (traced if need_traced else plain).append(
                self.iteration(need_traced))
        for it in plain + traced:
            self.failures += [op for op in it["ops"] if op[2]]
        return plain, traced


# -- metrics ------------------------------------------------------------------


def percentile(values, q):
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def op_latencies(plain, fastest):
    """Latency of each distinct operation over the run's iterations.

    Every iteration repeats the same operations in the same order, in a
    fresh process, so the i-th operation of each iteration is one sample of
    the same cold call.  A library call lasts milliseconds and recurs in
    9-13 iterations; on a shared machine a single stall inflates one sample
    and other load only ever adds time, so its latency is its fastest
    sample (``fastest``).  A CLI operation is a whole process of seconds
    that recurs only 3-5 times; stalls average out inside it, so its
    latency is its median sample.  The quantiles are then taken over the
    distinct operations.
    """
    samples = {}
    for it in plain:
        for i, (name, seconds, _problem) in enumerate(it["ops"]):
            samples.setdefault((i, name), []).append(seconds)
    pick = min if fastest else statistics.median
    return [pick(v) for v in samples.values()]


def end_to_end(workload, plain, probes):
    latencies = op_latencies(plain, fastest=workload not in CLI_WORKLOADS)
    return {
        "wall_s": statistics.median(it["wall"] for it in plain),
        "setup_s": statistics.median(p["import_s"] for p in probes),
        "ops_per_s": statistics.median(
            sum(1 for op in it["ops"] if not op[2]) / it["wall"]
            for it in plain),
        "op_p50_s": percentile(latencies, 0.5),
        "op_p90_s": percentile(latencies, 0.9),
        "peak_rss_mb": statistics.median(it["peak_mb"] for it in plain),
    }


def layer_figures(it):
    """Per-layer figures of one traced iteration, summed over its processes."""
    times, counts, peaks = {}, {}, {}
    for res in it["traces"]:
        tr = res["trace"]
        for src, dst in ((tr["times"], times), (tr["counts"], counts)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0.0) + v
        for k, v in tr["peaks"].items():
            peaks[k] = max(peaks.get(k, 0.0), v)
    imports = [res["import"] for res in it["traces"]]
    fig = {name: 0.0 for name, _ in PER_LAYER}
    if imports:
        fig["import.lambda_osc_s"] = statistics.median(
            i["import_s"] for i in imports)
        fig["import.modules"] = statistics.median(i["modules"] for i in imports)
        fig["import.scipy_linalg"] = max(i["scipy_linalg"] for i in imports)
    for name in fig:
        base = name[:-2] if name.endswith("_s") else name
        if base in times:
            fig[name] = times[base]
        elif name in counts:
            fig[name] = counts[name]
        elif name in peaks:
            fig[name] = peaks[name]
    fig["output.bytes"] = it["bytes"]
    fig["quadrature.self_s"] = (fig["quadrature.integrate_measure_s"]
                                - fig["quadrature.integrand_s"])
    steps = fig["classical.steps"]
    if steps:
        fig["classical.ns_per_step"] = 1e9 * (
            fig["classical.measure_period_s"] + fig["classical.integrate_s"]
        ) / steps
    return fig


def per_layer(run, plain, traced):
    figs = [layer_figures(it) for it in traced]
    out = {name: statistics.median(f[name] for f in figs)
           for name, _ in PER_LAYER}
    out["trace.overhead_s"] = (statistics.median(it["wall"] for it in traced)
                               - statistics.median(it["wall"] for it in plain))
    ops = [op for it in plain + traced for op in it["ops"]]
    known = run.known
    failed = sum(1 for op in ops + known if op[2])
    out["error_rate"] = failed / max(len(ops) + len(known), 1)
    out["known_failures"] = sum(1 for op in known if op[2])
    return out


# -- machine record -----------------------------------------------------------


def _loadavg():
    with open("/proc/loadavg") as fh:
        return fh.read().split()[:3]


def machine_record(probes):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": probes[0].get("blas_threads") if probes else None,
        "blas_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }


def run_workload(workload, seed, seconds, trace):
    """One run; returns (result line, details for standard error)."""
    load_start = _loadavg()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        run = Run(workload, seed, seconds, trace, tmp)
        probes = run.setup()
        plain, traced = run.loop()
        if trace and workload == "lambda-sweep":
            run.probe_known_failures()
        if trace:
            metrics = per_layer(run, plain, traced)
            units = dict(PER_LAYER)
        else:
            metrics = end_to_end(workload, plain, probes)
            units = dict(END_TO_END)
    attempted = sum(len(it["ops"]) for it in plain + traced)
    result = {
        "correct": not run.failures,
        "attempted": attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    details = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "inputs": run.items,
        "iterations": {"untraced": len(plain), "traced": len(traced)},
        "iteration_wall_s": [it["wall"] for it in plain],
        "failures": [list(op) for op in run.failures],
        "known_failures": [list(op) for op in run.known],
        "machine": machine_record(probes),
        "loadavg": {"start": load_start, "end": _loadavg()},
    }
    return result, details


def run_all(seed, seconds, out):
    report = {}
    print(f"{'workload':14} {'metric':40} {'value':>14}  unit")
    for workload in workloads.WORKLOADS:
        report[workload] = {}
        for trace in (False, True):
            result, details = run_workload(workload, seed, seconds, trace)
            report[workload]["per_layer" if trace else "end_to_end"] = {
                "result": result, "details": details}
            for name, m in result["metrics"].items():
                print(f"{workload:14} {name:40} {m['value']:14.6g}  {m['unit']}")
            print(f"{workload:14} {'attempted/failed':40} "
                  f"{result['attempted']:>8}/{result['failed']:<5}  ops",
                  flush=True)
    if out:
        Path(out).write_text(json.dumps(report, indent=1) + "\n")
    ok = all(r[k]["result"]["correct"] for r in report.values() for k in r)
    return 0 if ok else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and traced")
    ap.add_argument("--out", help="with --all: write the full report here")
    args = ap.parse_args()
    if not (ROOT / "src" / "lambda_osc" / "__init__.py").is_file():
        print(f"error: no lambda_osc sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds, args.out)
    if not args.workload:
        ap.error("--workload is required without --all")
    result, details = run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    print(json.dumps(details), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
