"""Command-line surface: table exports and the cross-validation suite.

Every subcommand emits machine-readable CSV or JSON, never plots; with
no flags beyond the subcommand the defaults reproduce the acceptance
parameter sets of ``params``.  Output is deterministic: identical
invocations produce byte-identical files.  A flag given that the run
does not read is refused before anything is written, so a flag that
some mode skips defaults to None and gets its default where it is read.

Importing this module loads ``params``, ``output`` and
``wavefunctions`` (which itself loads only ``params``).  Each command
imports the rest where it runs:

* ``potential`` loads nothing more, and ``classical`` only ``classical``;
* ``spectrum`` loads ``spectrum``, and ``polys`` the exact layer
  (``exact``, ``polynomials``, ``hermite``);
* ``wavefn`` loads numpy, and the exact layer with the recursion
  coefficients of ``hermite``;
* ``verify``, ``gram``, ``sl``, ``ladder`` and ``classical --probe``
  load ``verification`` with the exact layer, and the oracles and numpy
  that their checks use.

So ``polys``, ``ladder``, ``spectrum``, ``potential`` and ``classical``
start without numpy.
"""

import argparse
import io
import re
import sys
from fractions import Fraction

from . import params
from .output import dumps_json, write_csv
from .params import classify
# gram_matrix stays bound here for the perfbench tracer, which looks it up
from .wavefunctions import gram_matrix, wavefunction


def parse_deformation(text: str, exact: bool = False):
    """'3/10' is exact; '0.3' is exact when requested, else a float.

    Raises ValueError for text that is not a number, including a zero
    denominator such as '1/0'.
    """
    s = text.strip()
    if exact or "/" in s:
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(
                f"deformation {s} has a zero denominator") from None
    return float(s)


def _common_flags(p: argparse.ArgumentParser, table: bool = True):
    p.add_argument(
        "--lambda",
        dest="lam",
        action="append",
        metavar="VALUE",
        help="deformation parameter; accepts 0.3 or 3/10; repeatable "
             "where the command takes several",
    )
    if table:  # verify always writes JSON
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="PATH", help="output file (default stdout)")
    p.add_argument("--quiet", action="store_true", help="suppress notes")


class _Flags:
    """The parsed command line; remembers which flags the run read.
    ``names`` gives each flag by its destination, as typed (lam: --lambda)."""

    def __init__(self, parsed, names):
        self._values, self._names, self._read = vars(parsed), names, set()

    def __getattr__(self, dest):  # reached only for the parsed values
        if dest not in self._values:
            raise AttributeError(dest)
        self._read.add(dest)
        return self._values[dest]

    def unread(self):
        """The flags given (not None) that the run has not read."""
        return [f for d, f in self._names.items()
                if self._values.get(d) is not None and d not in self._read]


def _write(args, text):
    """The one output path.  The run has read every flag it uses by now,
    so a flag given but not read is refused here, before any output."""
    out = args.out
    unread = args.unread()
    if unread:
        raise ValueError(
            f"this {args.command} run does not read {', '.join(unread)}")
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, header, rows, json_obj=None):
    """CSV of the rows, or JSON (by default one object per row)."""
    if args.format == "json":
        if json_obj is None:
            json_obj = [dict(zip(header, r)) for r in rows]
        text = dumps_json(json_obj)
    else:
        buf = io.StringIO()
        write_csv(buf, header, rows)
        text = buf.getvalue()
    quiet = args.quiet  # read before _write refuses the unread flags
    _write(args, text)
    if args.out and not quiet:
        print(f"wrote {args.out}")


def _lambdas(args, default, exact=False):
    if not args.lam:
        return list(default)
    return [parse_deformation(s, exact=exact) for s in args.lam]


def _single(values, flag, where):
    """The one value of a repeatable flag; a second is refused, not dropped."""
    if len(values) > 1:
        raise ValueError(f"{where} takes one {flag}, got {len(values)}")
    return values[0]


def _lambda(args, default, exact=False, where=None):
    """The deformation of a command that takes one (``default`` if none)."""
    return _single(_lambdas(args, [default], exact=exact), "--lambda",
                   where or args.command)


# -- subcommands ---------------------------------------------------------------


def cmd_spectrum(args) -> int:
    from .spectrum import continuous_curve, energies

    lams = args.figure or _lambdas(args, params.SPECTRUM_LAMBDAS)
    rows = []
    for lam in lams:
        m_max = args.mmax
        if m_max is None:
            m_max = classify(lam).top_index(8)
        table = energies(lam, m_max)
        for m, e, spacing, bound in table.rows():
            rows.append((float(lam), "level", float(m), e, spacing, bound))
        if args.figure:
            top = (1.0 / lam * 1.6) if lam > 0 else (m_max + 0.5)
            points = args.curve_points
            grid = _linspace(0.0, top, 201 if points is None else points)
            for m, e in continuous_curve(lam, grid):
                rows.append((float(lam), "curve", m, e, None, None))
    _emit(args, ["lambda", "kind", "m", "e", "spacing", "bound"], rows)
    return 0


def _linspace(start, stop, num):
    """numpy.linspace(start, stop, num) in plain floats, bit for bit:
    i*step + start, with the last point set to stop."""
    if num < 0:
        raise ValueError(f"Number of samples, {num}, must be non-negative.")
    step = (stop - start) / (num - 1) if num > 1 else stop - start
    xs = [i * step + start for i in range(num)]
    if num > 1:
        xs[-1] = stop
    return xs


def cmd_potential(args) -> int:
    lams = _lambdas(args, params.POTENTIAL_LAMBDAS)
    alpha = args.alpha
    rows = []
    for lam in lams:
        lam = float(lam)
        edge = classify(lam).half_width
        if edge is not None:
            # the walls are dropped; a negative count is refused as given
            n = args.points
            xs = _linspace(-edge, edge, n + 2 if n >= 0 else n)[1:-1]
        else:
            xmax = 5.0 if args.xmax is None else args.xmax
            xs = _linspace(-xmax, xmax, args.points)
        for x in xs:
            v = 0.5 * alpha * alpha * x * x / (1.0 + lam * x * x)
            rows.append((lam, "sample", float(x), float(v)))
        if lam > 0:
            rows.append((lam, "asymptote", None, alpha * alpha / (2.0 * lam)))
    _emit(args, ["lambda", "kind", "x", "value"], rows)
    return 0


def cmd_polys(args) -> int:
    from .hermite import (generating_coeffs, proportionality, rodrigues,
                          series_solution)

    lam = _lambda(args, None, exact=True)
    n_max, route = args.nmax, args.normalization
    if not lam and route == "rodrigues":
        raise ValueError("the derivative route needs a fixed nonzero "
                         "rational deformation (--lambda)")
    if not lam and args.ratios:
        raise ValueError(
            "ratio table needs a fixed nonzero rational deformation")
    if route == "rodrigues":
        polys = [rodrigues(n, lam) for n in range(n_max + 1)]
    elif route == "series":
        polys = [series_solution(n, lam) for n in range(n_max + 1)]
    else:
        polys = generating_coeffs(n_max, lam)
    # a row's n is its place, its route the flag's (series_h2 at odd n)
    dicts = [{"n": n,
              "normalization": (f"series_h{n % 2 + 1}" if route == "series"
                                else route),
              "lambda": "generic" if lam is None else str(lam),
              "coeffs": [str(c) for c in p.coeffs]}
             for n, p in enumerate(polys)]
    if args.ratios:
        gen = generating_coeffs(n_max, lam)
        for n, d in enumerate(dicts):
            c = proportionality(polys[n], gen[n])
            d["ratio_to_generating"] = str(c)
    rows = []
    for d in dicts:
        for k, c in enumerate(d["coeffs"]):
            rows.append(
                (d["n"], d["normalization"], d["lambda"], k, c)
                + ((d["ratio_to_generating"],) if args.ratios else ())
            )
    header = ["n", "normalization", "lambda", "power", "coefficient"] + (
        ["ratio_to_generating"] if args.ratios else []
    )
    _emit(args, header, rows, dicts)
    return 0


def cmd_wavefn(args) -> int:
    import numpy as np

    lam = _lambda(args, 0.3)
    dp = classify(lam)
    ms = args.m if args.m else list(range(dp.top_index(3) + 1))
    ws = [wavefunction(m, lam) for m in ms]
    wall = dp.half_width
    hi = args.ymax
    if hi is None:
        hi = 5.0 if wall is None else 0.999 * wall
    lo = -hi if args.ymin is None else args.ymin
    if wall is not None:  # every sample lies between lo and hi
        for flag, y in (("--ymax", hi), ("--ymin", lo)):
            if not -wall < y < wall:
                raise ValueError(f"{flag} {y} lies outside the walls at "
                                 f"+-{wall} of deformation {lam}")
    ys = np.linspace(lo, hi, args.points)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        cols = [w.normalized(ys) if args.normalized else w(ys) for w in ws]
    for m, c in zip(ms, cols):
        if not np.isfinite(c).all():
            raise ValueError(f"psi_{m} is not finite at deformation {lam}: its "
                             f"unnormalized values overflow float range "
                             f"(--normalized stays in range)")
    rows = [
        (float(y),) + tuple(float(c[i]) for c in cols)
        for i, y in enumerate(ys)
    ]
    header = ["y"] + [f"psi_{m}" for m in ms]
    json_obj = {
        "lambda": float(lam),
        "m": list(ms),
        "normalized": bool(args.normalized),
        "samples": [dict(zip(header, r)) for r in rows],
    }
    _emit(args, header, rows, json_obj)
    return 0


def cmd_gram(args) -> int:
    from . import verification

    rows, report = [], []
    for lam in _lambdas(args, params.GRAM_LAMBDAS):
        g, dev = verification.gram_comparison(float(lam), args.mmax)
        n = g.shape[0]
        rows.extend((float(lam), i, j, float(g[i, j]))
                    for i in range(n) for j in range(n))
        report.append({"lambda": float(lam), "size": n, "max_offdiagonal": dev,
                       "matrix": [[float(v) for v in row] for row in g]})
    _emit(args, ["lambda", "i", "j", "overlap"], rows, report)
    return 0


def cmd_sl(args) -> int:
    from . import verification

    rows, report = [], []
    for lam in map(float, _lambdas(args, params.SL_LAMBDAS)):
        k, vals, levels, exact, dev = verification.sl_comparison(
            lam, args.k, args.tol)
        rows.extend((lam, lv.n, m, float(lv.raw[m]), float(lv.extrapolated[m]),
                     lv.error_estimate) for lv in levels for m in range(k))
        report.append({"lambda": lam, "levels": k,
                       "eigenvalues": [float(v) for v in vals],
                       "closed_form": exact, "max_abs_error": dev,
                       "grids": [{"n": lv.n,
                                  "error_estimate": lv.error_estimate}
                                 for lv in levels]})
    header = ["lambda", "grid", "m", "raw", "extrapolated", "error_estimate"]
    _emit(args, header, rows, report)
    return 0


def cmd_ladder(args) -> int:
    from . import verification

    lam = _lambda(args, Fraction(3, 10), exact=True)
    n_max = args.nmax
    if n_max is None:
        n_max = classify(lam).top_index(8)
    chain = verification.ladder_chain(lam, n_max)
    ratios = verification.ladder_ratios(lam, n_max)
    rows = [
        (n, float(e_chain), float(e_closed), match, str(ratio))
        for n, ((e_chain, e_closed, match), ratio)
        in enumerate(zip(chain, ratios))
    ]
    header = ["n", "chain_energy", "full_energy", "exact_match", "poly_ratio"]
    _emit(args, header, rows)
    return 0


def cmd_classical(args) -> int:
    periods = args.periods
    if args.probe:
        from . import verification

        lams = _lambdas(args, params.CLASSICAL_LAMBDAS)
        probes = verification.period_probes(
            [float(lam) for lam in lams],
            args.amplitude or params.CLASSICAL_AMPLITUDES, args.alpha,
            params.CLASSICAL_PERIODS if periods is None else periods,
            args.steps_per_period)
        rows = [(lam, amp, probe.period, law, rel, probe.max_rel_energy_drift)
                for lam, amp, probe, law, rel in probes]
        header = [
            "lambda", "amplitude", "measured_period", "law_period",
            "rel_period_error", "max_rel_energy_drift",
        ]
        _emit(args, header, rows)
        return 0
    from . import classical

    where = "classical without --probe"
    lam = float(_lambda(args, params.CLASSICAL_LAMBDAS[0], where=where))
    amp = _single(args.amplitude or [1.0], "--amplitude", where)
    if args.steps_per_period < 1:
        raise ValueError("steps_per_period must be positive")
    orbit = classical.OrbitParams.from_amplitude(amp, args.alpha, lam)
    h = orbit.period / args.steps_per_period
    traj = classical.integrate(
        classical.ClassicalState(amp, 0.0),
        args.alpha,
        lam,
        (3 if periods is None else periods) * orbit.period,
        h,
        sample_every=10 if args.sample_every is None else args.sample_every,
    )
    _emit(args, ["t", "x", "v", "E"], list(zip(traj.t, traj.x, traj.v, traj.e)))
    return 0


def cmd_verify(args) -> int:
    from . import verification

    groups = [g for g in params.VERIFY_GROUPS if getattr(args, g)]
    lams = tol = None
    if not groups or any(g in params.OVERRIDABLE_GROUPS for g in groups):
        lams = [float(lam) for lam in _lambdas(args, [])] or None
        tol = args.tol
    results = verification.run_checks(groups, lams=lams, tol=tol)
    records = [r.to_dict() for r in results]
    ok = all(r.passed for r in results)
    quiet = args.quiet  # read before _write refuses the unread flags
    _write(args, dumps_json(records))
    if not quiet:
        n_pass = sum(r.passed for r in results)
        print(f"{n_pass}/{len(results)} checks passed", file=sys.stderr)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambda-osc",
        description=(
            "Exactly solvable structures of the deformed quantum nonlinear "
            "oscillator: polynomial tables, spectra, orthogonality, ladder "
            "operators, an independent eigensolver, and the classical law."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="closed-form energy levels")
    _common_flags(p)
    p.add_argument("--mmax", type=int, help="highest index (default: the "
                   "last bound index, at most 8)")
    figure = p.add_mutually_exclusive_group()
    figure.add_argument("--figure3", dest="figure", action="store_const",
                        const=(0.30, 0.15),
                        help="curves plus bound points at 0.30 and 0.15")
    figure.add_argument("--figure4", dest="figure", action="store_const",
                        const=(0.30, -0.30, 0.0),
                        help="curves at +-0.30 plus the linear oscillator")
    p.add_argument("--curve-points", type=int,
                   help="samples per curve of a figure (default: 201)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("potential", help="potential samples")
    _common_flags(p)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--xmax", type=float, help="samples span +-xmax at "
                   "lam >= 0 (default: 5), and the walls at lam < 0")
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("polys", help="deformed polynomial tables")
    _common_flags(p)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument(
        "--normalization",
        choices=("generating", "series", "rodrigues"),
        default="generating",
    )
    p.add_argument("--ratios", action="store_true",
                   help="include proportionality constants to the generating route")
    p.set_defaults(func=cmd_polys)

    p = sub.add_parser("wavefn", help="eigenfunction samples")
    _common_flags(p)
    p.add_argument("--m", type=int, action="append",
                   help="index to sample; repeatable (default: 0 to 3, "
                        "or to the last bound index if that is lower)")
    p.add_argument("--ymin", type=float, help="default: -ymax")
    p.add_argument("--ymax", type=float, help="default: 5, or just inside "
                   "the walls, where every sample must lie")
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--normalized", action="store_true")
    p.set_defaults(func=cmd_wavefn)

    p = sub.add_parser("gram", help="normalized overlap matrices")
    _common_flags(p)
    p.add_argument("--mmax", type=int, default=params.GRAM_MAX_INDEX)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("sl", help="finite-difference eigensolver tables")
    _common_flags(p)
    p.add_argument("--tol", type=float, default=params.SL_TOL,
                   help="refinement tolerance, the bound of verify --sl")
    p.add_argument("--k", type=int, help="number of levels (default: every "
                   "bound level, at most 7, as verify --sl uses)")
    p.set_defaults(func=cmd_sl)

    p = sub.add_parser("ladder", help="shape-invariance chain energies")
    _common_flags(p)
    p.add_argument("--nmax", type=int, help="highest index (default: the "
                   "last bound index, at most 8)")
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("classical", help="trajectories and the period law")
    _common_flags(p)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--amplitude", type=float, action="append",
                   help="repeatable; default: 1.0, or 0.5 and 1.0 for --probe")
    p.add_argument("--periods", type=int,
                   help="default: 3 for trajectories, 100 for --probe")
    p.add_argument("--steps-per-period", type=int,
                   default=params.CLASSICAL_STEPS_PER_PERIOD)
    p.add_argument("--sample-every", type=int,
                   help="trajectory row stride (default: 10)")
    p.add_argument("--probe", action="store_true",
                   help="emit period/drift measurements instead of a trajectory")
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("verify", help="run the cross-validation suite")
    _common_flags(p, table=False)
    p.add_argument("--tol", type=float, help="bound of the sl and gram "
                   "checks (default: theirs); refused unless sl or gram runs, "
                   "as is --lambda")
    for name in params.VERIFY_GROUPS:
        p.add_argument(f"--{name}", action="store_true",
                       help=f"run only the {name} checks (combinable)")
    p.set_defaults(func=cmd_verify)

    return parser


def _bind_negative_lambdas(argv):
    """Join '--lambda' and a following negative value such as -3/7.

    argparse takes such a token for an option, since only plain decimals
    like -0.3 pass its negative-number test; '--lambda=-3/7' always works.
    """
    out = []
    for tok in argv:
        if out and out[-1] == "--lambda" and re.match(r"-[\d.]", tok):
            out[-1] = f"--lambda={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    parsed = parser.parse_args(
        _bind_negative_lambdas(sys.argv[1:] if argv is None else argv))
    (commands,) = parser._subparsers._group_actions
    actions = commands.choices[parsed.command]._actions
    args = _Flags(parsed, {a.dest: a.option_strings[0] for a in actions})
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
