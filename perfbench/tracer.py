"""Span recording around lambda-osc's public entry points, from outside.

``install`` replaces each entry point with a recording wrapper in its own
module and in every ``lambda_osc`` namespace that imported the name
directly, including registries such as ``verification.ALL_CHECKS``.
Spans (name, start, end, parent) and counters stay in memory;
``Tracer.summary`` folds them into per-layer figures at process end.

Used only by traced runs; end-to-end metrics come from untraced runs.
"""

import inspect
import sys
import time
from collections import defaultdict

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)

    def wrap(self, name, fn, hook=None, on_error=None):
        """Record a span per call; ``hook(bound_args)`` sees the arguments,
        ``on_error`` is the counter bumped when the call raises."""
        sig = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments)
            idx = len(spans)
            spans.append([name, perf(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if on_error:
                    self.counts[on_error] += 1
                raise
            finally:
                spans[idx][2] = perf()
                stack.pop()

        return traced

    def count(self, name, fn):
        """Count calls without a span (for functions too hot to span)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def summary(self):
        """Inclusive seconds per span name (outermost spans of that name
        only, so recursion is not counted twice), plus the counters."""
        spans = self.spans
        times = defaultdict(float)
        for name, start, end, parent in spans:
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                times[name] += end - start
        return {"times": dict(times), "counts": dict(self.counts),
                "peaks": dict(self.peaks)}


def _replace(orig, new):
    """Rebind ``orig`` to ``new`` in every lambda_osc namespace and in the
    tuples of module-level registries (dicts of function tuples)."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "lambda_osc" and not mod_name.startswith("lambda_osc."):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)
            elif isinstance(value, dict):
                for k, v in value.items():
                    if isinstance(v, tuple) and any(f is orig for f in v):
                        value[k] = tuple(new if f is orig else f for f in v)


def install(tracer, cli_label=None):
    """Wrap the public entry points of every layer the benchmark reports."""
    import lambda_osc.cli as cli
    from lambda_osc import (classical, factorization, hermite, output,
                            quadrature, spectrum, sturm_liouville,
                            verification, wavefunctions)

    t = tracer

    def span(mod, attr, name=None, hook=None, on_error=None):
        orig = getattr(mod, attr)
        layer = mod.__name__.rsplit(".", 1)[-1]
        _replace(orig, t.wrap(name or f"{layer}.{attr}", orig, hook, on_error))

    def peak(name, value):
        t.peaks[name] = max(t.peaks[name], value)

    def steps_period(a):
        t.counts["classical.steps"] += a["n_periods"] * a["steps_per_period"]

    def steps_integrate(a):
        t.counts["classical.steps"] += max(1, round(a["total_time"] / a["h"]))

    def grid(a):
        t.counts["sturm_liouville.grids"] += 1
        peak("sturm_liouville.max_grid", a["disc"].n)

    def degree(key):
        return lambda a: peak("hermite.max_degree", a[key])

    def integrand(a):
        f = a["f"]

        def timed(y):
            t0 = perf()
            try:
                return f(y)
            finally:
                t.counts["quadrature.integrand_s"] += perf() - t0
                t.counts["quadrature.points"] += getattr(y, "size", 1)

        a["f"] = timed
        t.counts["quadrature.calls"] += 1

    # integrate_measure needs its integrand swapped, so it gets its own wrapper
    orig_im = quadrature.integrate_measure
    sig_im = inspect.signature(orig_im)

    def integrate_measure(*args, **kwargs):
        bound = sig_im.bind(*args, **kwargs)
        integrand(bound.arguments)
        return spanned_im(*bound.args, **bound.kwargs)

    spanned_im = t.wrap("quadrature.integrate_measure", orig_im,
                        on_error="quadrature.failed")
    _replace(orig_im, integrate_measure)

    for name in ("gram_matrix", "norm_constant", "nodes"):
        span(wavefunctions, name)
    span(sturm_liouville, "refine", on_error="sturm_liouville.failed")
    span(sturm_liouville, "eigenvalues", hook=grid)
    span(classical, "measure_period", hook=steps_period)
    span(classical, "integrate", hook=steps_integrate)
    for name in ("generating_coeffs", "series_solution"):
        orig = getattr(hermite, name)
        key = "n_max" if name == "generating_coeffs" else "p"
        generic = t.wrap(f"hermite.{name}.generic", orig, degree(key))
        fixed = t.wrap(f"hermite.{name}.fixed", orig, degree(key))

        def by_mode(*args, _g=generic, _f=fixed, **kwargs):
            lam = args[1] if len(args) > 1 else kwargs.get("lam")
            return (_g if lam is None else _f)(*args, **kwargs)

        _replace(orig, by_mode)
    span(hermite, "rodrigues", hook=degree("n"))
    span(hermite, "proportionality",
         hook=lambda a: peak("hermite.max_degree", a["pa"].degree))
    span(factorization, "build_state")
    _replace(factorization.apply,
             t.count("factorization.apply_calls", factorization.apply))
    span(spectrum, "ladder_energies")
    span(output, "write_csv", name="output.emit")
    span(output, "dumps_json", name="output.emit")
    checks = [fn.__name__ for fns in verification.ALL_CHECKS.values()
              for fn in fns]
    for name in checks:
        span(verification, name)
    if cli_label:
        for attr in dir(cli):
            if attr.startswith("cmd_"):
                span(cli, attr, name=f"cli.{cli_label}")
