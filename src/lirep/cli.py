"""Command-line surface: eval, crosscheck, zeta-odd, lemma-check.

Exit codes: 0 success, 1 oracle failure (lemma-check), 2 domain error,
3 non-convergence / exhausted budget. In json and csv modes stdout carries
only the machine-readable payload; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

from .errors import DomainError, LirepError, ResourceLimitError
from .polylog import (
    KernelKind,
    PolylogRequest,
    RepresentationTag,
    _check_disc,
    _zeta_odd,
    lemma_expected,
    lemma_integral,
    li_eval,
    li_series,
)
from .quadrature import _check_tol
from .special import riemann_zeta

EXIT_OK = 0
EXIT_ORACLE_FAIL = 1
EXIT_DOMAIN = 2
EXIT_NO_CONVERGENCE = 3


def parse_complex(text: str) -> complex:
    """Parse 'a', 'ai', 'a+bi' (no spaces); 'j' is accepted as a synonym."""
    try:
        return complex(text.strip().replace("i", "j").replace("I", "j"))
    except ValueError:
        raise DomainError(f"cannot parse complex literal {text!r}") from None


def format_complex(value: complex) -> str:
    if value.imag == 0.0:
        return repr(value.real)
    if value.real == 0.0:
        return f"{value.imag!r}i"
    return f"{value.real!r}{'+' if value.imag >= 0 else '-'}{abs(value.imag)!r}i"


def _pair(value: complex) -> list[float]:
    return [value.real, value.imag]


def _parse_float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _parse_complex_list(text: str) -> list[complex]:
    return [parse_complex(part) for part in text.split(",") if part]


# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    s = parse_complex(args.s)
    z = parse_complex(args.z)
    reps: list[RepresentationTag]
    if args.rep == "all":
        reps = [t for t in RepresentationTag if t is not RepresentationTag.AUTO]
    else:
        reps = [RepresentationTag(args.rep)]
    rows = []
    exhausted = False
    # li_eval owns every route's domain rules; --rep all keeps the routes
    # that accept (s, z) and names on stderr those that ran out of budget.
    for rep in reps:
        try:
            rows.append(
                li_eval(PolylogRequest(s=s, z=z, representation=rep, delta=args.delta, tol=args.tol))
            )
        except LirepError as exc:
            if args.rep != "all":
                raise
            if isinstance(exc, ResourceLimitError):
                print(f"error: {rep.value}: {exc}", file=sys.stderr)
                exhausted = True
    if not rows and not exhausted:
        raise DomainError("no applicable representation for this (s, z)")
    all_converged = all(r.converged for r in rows)
    if args.format == "json":
        payload = [
            {
                "s": _pair(s),
                "z": _pair(z),
                "route": r.route.value,
                "value": _pair(r.value),
                "error_estimate": r.error_estimate,
                "converged": r.converged,
            }
            for r in rows
        ]
        print(json.dumps(payload if args.rep == "all" else payload[0]))
    elif args.format == "csv":
        print("s,z,route,value_re,value_im,error_estimate,converged")
        for r in rows:
            print(
                f"{format_complex(s)},{format_complex(z)},{r.route.value},"
                f"{r.value.real!r},{r.value.imag!r},{r.error_estimate!r},{r.converged}"
            )
    else:
        for r in rows:
            print(f"Li_s(z)  s={format_complex(s)}  z={format_complex(z)}")
            print(f"  route          : {r.route.value}")
            print(f"  value          : {format_complex(r.value)}")
            print(f"  error_estimate : {r.error_estimate:.3e}")
            print(f"  converged      : {r.converged}")
    return EXIT_OK if all_converged and not exhausted else EXIT_NO_CONVERGENCE


def cmd_crosscheck(args) -> int:
    radii = _parse_float_list(args.radii)
    s_values = _parse_complex_list(args.s_list)
    if not radii or args.angles < 1 or not s_values:
        raise DomainError("empty grid")
    routes = [RepresentationTag(name) for name in args.routes.split(",") if name]
    grid = [
        r * cmath.exp(2j * math.pi * k / args.angles)
        for r in radii
        for k in range(args.angles)
    ]
    for z in grid:
        _check_disc(z)
    _check_tol(args.tol)  # before it is scaled, so that a message names the caller's tol
    rows = []
    max_dev = 0.0
    all_converged = True
    for s in s_values:
        for z in grid:
            base = li_series(s, z, tol=args.tol / 10.0)
            for rep in routes:
                res = li_eval(
                    PolylogRequest(s=s, z=z, representation=rep, delta=args.delta, tol=args.tol)
                )
                dev = abs(res.value - base.value)
                max_dev = max(max_dev, dev)
                all_converged = all_converged and res.converged
                rows.append((s, z, res, dev))
    if args.format == "json":
        payload = {
            "rows": [
                {
                    "s": _pair(s),
                    "z": _pair(z),
                    "route": res.route.value,
                    "value": _pair(res.value),
                    "error_estimate": res.error_estimate,
                    "converged": res.converged,
                    "abs_dev": dev,
                }
                for (s, z, res, dev) in rows
            ],
            "max_abs_dev": max_dev,
            "max_dev_allowed": args.max_dev,
        }
        print(json.dumps(payload))
    elif args.format == "csv":
        print("s,z,route,value_re,value_im,abs_dev")
        for (s, z, res, dev) in rows:
            print(
                f"{format_complex(s)},{format_complex(z)},{res.route.value},"
                f"{res.value.real!r},{res.value.imag!r},{dev!r}"
            )
    else:
        print(f"{'s':>12} {'z':>28} {'route':>14} {'|dev vs series|':>16}")
        for (s, z, res, dev) in rows:
            print(
                f"{format_complex(s):>12} {format_complex(z):>28} "
                f"{res.route.value:>14} {dev:16.3e}"
            )
        print(f"max |dev| = {max_dev:.3e}  (allowed {args.max_dev:.3e})")
    if not all_converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK if max_dev <= args.max_dev else EXIT_ORACLE_FAIL


def cmd_zeta_odd(args) -> int:
    n = args.n
    rows = []
    all_converged = True
    for kind in ("cot", "tan"):
        for delta in (1.0, 0.5):
            value, quad = _zeta_odd(kind, n, delta, args.tol)
            all_converged = all_converged and quad.converged
            rows.append((kind, delta, value))
    # after the rows, so that _zeta_odd is the one to reject n < 1
    reference = riemann_zeta(2 * n + 1).real
    rows = [(k, d, v, abs(v - reference)) for (k, d, v) in rows]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": n,
                    "zeta_argument": 2 * n + 1,
                    "reference": reference,
                    "rows": [
                        {"kind": k, "delta": d, "value": v, "abs_dev": dev}
                        for (k, d, v, dev) in rows
                    ],
                }
            )
        )
    elif args.format == "csv":
        print("n,kind,delta,value,reference,abs_dev")
        for (k, d, v, dev) in rows:
            print(f"{n},{k},{d!r},{v!r},{reference!r},{dev!r}")
    else:
        print(f"zeta({2 * n + 1})  reference (series) = {reference!r}")
        for (k, d, v, dev) in rows:
            print(f"  {k:>3} route, delta={d:<4}: {v!r}  |dev| = {dev:.3e}")
    return EXIT_OK if all_converged else EXIT_NO_CONVERGENCE


_LEMMA_GRID_RADII = (0.1, 0.5, 0.9)
_LEMMA_GRID_ANGLES = (0.0, math.pi / 3.0, math.pi / 2.0)


def cmd_lemma_check(args) -> int:
    if args.n_max < 1:
        raise DomainError(f"--n-max must be >= 1, got {args.n_max}")
    if args.z is not None:
        zs = [parse_complex(args.z)]
    else:
        zs = [
            r * cmath.exp(1j * a) for r in _LEMMA_GRID_RADII for a in _LEMMA_GRID_ANGLES
        ]
    worst: dict[tuple[str, str, float], float] = {}
    for kind in (KernelKind.SIN, KernelKind.COS):
        for channel in ("cos", "sin"):
            for delta in (1.0, 0.5):
                w = 0.0
                for n in range(1, args.n_max + 1):
                    for z in zs:
                        got = lemma_integral(channel, kind, n, z, delta, tol=args.tol)
                        expected = lemma_expected(channel, kind, n, z, delta)
                        w = max(w, abs(got - expected))
                worst[(channel, kind.value, delta)] = w
    overall = max(worst.values())
    passed = overall <= args.threshold
    if args.format == "json":
        print(
            json.dumps(
                {
                    "groups": [
                        {"channel": c, "kernel": k, "delta": d, "worst_abs_dev": w}
                        for (c, k, d), w in sorted(worst.items())
                    ],
                    "worst_abs_dev": overall,
                    "threshold": args.threshold,
                    "pass": passed,
                }
            )
        )
    elif args.format == "csv":
        print("channel,kernel,delta,worst_abs_dev")
        for (c, k, d), w in sorted(worst.items()):
            print(f"{c},{k},{d!r},{w!r}")
    else:
        for (c, k, d), w in sorted(worst.items()):
            print(f"  channel={c:>3} kernel={k:>3} delta={d:<4}: worst |dev| = {w:.3e}")
        print(f"overall worst |dev| = {overall:.3e}  threshold = {args.threshold:.1e}")
        print("PASS" if passed else "FAIL")
    return EXIT_OK if passed else EXIT_ORACLE_FAIL


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lirep",
        description="Polylogarithm evaluation and cross-checking via integral representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=1e-10, help="evaluation tolerance")
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text", help="output format"
        )

    p = sub.add_parser("eval", help="evaluate Li_s(z) by one or all representations")
    p.add_argument("--s", required=True, help="order, complex literal like 2, 2.5, 2+0.7i")
    p.add_argument("--z", required=True, help="argument, complex literal")
    p.add_argument(
        "--rep",
        default="auto",
        choices=[t.value for t in RepresentationTag] + ["all"],
        help="representation to use",
    )
    p.add_argument("--delta", type=float, default=1.0, choices=(1.0, 0.5))
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("crosscheck", help="compare routes against the series on a z grid")
    p.add_argument("--radii", default="0.25,0.5,0.8", help="comma list of |z| values (< 1)")
    p.add_argument("--angles", type=int, default=3, help="equally spaced arguments per radius")
    p.add_argument("--s-list", default="2.5,3", help="comma list of orders")
    p.add_argument(
        "--routes",
        default="theorem6a,theorem6b,theorem6c,classical-exp",
        help="comma list of representations to compare",
    )
    p.add_argument("--delta", type=float, default=1.0, choices=(1.0, 0.5))
    p.add_argument("--max-dev", type=float, default=1e-7, help="pass/fail deviation threshold")
    common(p)
    p.set_defaults(func=cmd_crosscheck, tol=1e-9)

    p = sub.add_parser("zeta-odd", help="zeta(2n+1) via the cot and tan integrals")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_zeta_odd)

    p = sub.add_parser("lemma-check", help="trigonometric-moment oracle for the kernels")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--z", default=None, help="single z instead of the default grid")
    p.add_argument("--threshold", type=float, default=1e-9)
    common(p)
    p.set_defaults(func=cmd_lemma_check, tol=1e-11)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (DomainError, LirepError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
