"""The four seeded workloads: request generators, warm-ups and callers.

A workload hands the harness one *pass* of requests at a time. The timed
loop runs whole passes until the run length is used up, so every run of a
workload has the same mix of requests whatever its seed. The library only
ever sees the generated inputs: `(s, z, representation, tol)` for the
`li_eval` workloads and argv lists for `cli-mix`.

Costs here span five orders of magnitude and change steeply with the
inputs, so independent random draws would make two seeds time very
differently. Each workload therefore places its points on a fixed design
(a low-discrepancy sequence, a grid of cells, or a short list), and the
seed moves each point within a small neighbourhood. Two seeds give
different inputs with nearly the same mix of cheap and expensive requests.

This module imports neither numpy nor lirep at import time, so that the
set-up timer in `run.py` sees the whole cost of `import lirep`.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

# A request for the li_eval workloads: (s, z, representation tag value, tol).
LiRequest = tuple  # (complex, complex, str, float)
# A request for cli-mix: argv as a tuple of strings.
CliRequest = tuple


def _rng(seed: int, stream: str) -> random.Random:
    # Separate streams per purpose, so that e.g. the warm-up z of
    # kernel-sweep never coincide with its timed z.
    return random.Random(f"{seed}/{stream}")


def _design(rng: random.Random, n: int, dims: int, shift: float = 0.5, jitter: float = 0.01) -> list[list[float]]:
    """n points in [0, 1)^dims: the R_d sequence, each coordinate moved by at most `jitter`.

    The sequence (with a fixed `shift`) spreads the points evenly; the seed
    only moves each point within its small neighbourhood.
    """
    g = 2.0
    for _ in range(64):  # g is the positive root of g^(dims+1) = g + 1
        g = (1.0 + g) ** (1.0 / (dims + 1))
    alpha = [g ** -(j + 1) for j in range(dims)]
    top = 1.0 - 2.0**-40
    return [
        [min(top, max(0.0, (shift + (i + 1) * a) % 1.0 + rng.uniform(-jitter, jitter))) for a in alpha]
        for i in range(n)
    ]


def _polar(r: float, theta: float) -> complex:
    return complex(r * math.cos(theta), r * math.sin(theta))


# ---------------------------------------------------------------------------
# auto-mix: li_eval with RepresentationTag.AUTO.

AUTO_TOL = 1e-10
# 40% |z| <= 0.5 (series), 40% 0.5 < |z| < 1 (classical-exp, or series
# when Re s <= 0), 20% |z| > 1 at integer order (inversion).
AUTO_INNER, AUTO_ANNULUS, AUTO_OUTSIDE = 96, 96, 48
# classical-exp does not converge for 0 < Re s <= 0.02 (up to 0.1 for
# complex s as z -> 1) and spends its whole evaluation budget trying: the
# annulus leaves 0 < Re s < 0.25 out, so that no request fails.
AUTO_ANNULUS_GAP = (0.0, 0.25)


def _auto_order(u_re: float, u_im: float, gap: tuple[float, float]) -> complex:
    """Re s uniform on (-1, 5) minus `gap`; complex (|Im s| < 3) when u_im < 1/2."""
    re = -1.0 + (6.0 - (gap[1] - gap[0])) * u_re
    if re > gap[0]:
        re += gap[1] - gap[0]
    return complex(re, 3.0 * (4.0 * u_im - 1.0) if u_im < 0.5 else 0.0)


def _auto_pass(seed: int) -> list[LiRequest]:
    rng = _rng(seed, "auto")
    reqs: list[LiRequest] = []
    for u in _design(rng, AUTO_INNER, 4):
        s = _auto_order(u[0], u[1], (0.0, 0.0))
        reqs.append((s, _polar(0.5 * u[2], math.pi * (2.0 * u[3] - 1.0)), "auto", AUTO_TOL))
    gap_lo, gap_hi = math.log(1e-3), math.log(0.5)
    for u in _design(rng, AUTO_ANNULUS, 4, shift=0.25):
        s = _auto_order(u[0], u[1], AUTO_ANNULUS_GAP)
        r = 1.0 - math.exp(gap_lo + (gap_hi - gap_lo) * u[2])  # 1 - |z| log-uniform
        reqs.append((s, _polar(r, math.pi * (2.0 * u[3] - 1.0)), "auto", AUTO_TOL))
    r_lo, r_hi = math.log(1.02), math.log(10.0)
    for u in _design(rng, AUTO_OUTSIDE, 3):
        n = 1 + int(6.0 * u[0])
        r = math.exp(r_lo + (r_hi - r_lo) * u[1])
        # off the cut [1, inf): |arg z| >= 0.01
        theta = math.copysign(0.01 + (math.pi - 0.01) * abs(2.0 * u[2] - 1.0), u[2] - 0.5)
        reqs.append((complex(n), _polar(r, theta), "auto", AUTO_TOL))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# kernel-cold: forced theorem6a/6b/6c at orders never seen before in the run.

KERNEL_TOL = 1e-9  # the crosscheck default
THEOREM_TAGS = ("theorem6a", "theorem6b", "theorem6c")
# Cold cost falls steeply with Re s (terms per node grow like
# tol^(-1/Re s)), so Re s is stratified into equal cells with one order
# each. Cell k always takes the k-th order range and a fixed route, |z|
# band, arg z and real/complex flag. Re s between 1.7 and 3.2 is left out,
# but for one order near 3: a cold request there costs 0.15 s (Re s = 3)
# to 30 s (Re s = 1.8, |z| = 0.97), and the harness needs every request
# repeated many times in a run to time it on a shared machine.
COLD_SERIES_RANGE = (3.2, 4.5)
COLD_SERIES_CELLS = 25
COLD_REFLECTION_RANGE = (1.5, 1.7)  # past 2^20 terms: Hurwitz reflection
# Each pass: 25 series cells, 2 reflection orders and 4 orders within 1e-6
# to 1e-4 of 3 or 4: 31 requests, 13% of them near an integer. An odd count
# puts the median on one cell, not between two.
COLD_NEAR_INTEGERS = (3, 4, 4, 4)
# a quarter of the requests sit at 0.95 < |z| < 0.99
COLD_RADIUS_BANDS = ((0.06, 0.35), (0.35, 0.65), (0.65, 0.89), (0.96, 0.98))
# Pass p repeats the seed's 31 requests with every order moved by p times
# this step: each order is new to the run, so every node misses the cache,
# but the work is the same to many digits, so that the harness can take the
# fastest of a cell's repeats as its cost.
COLD_TWIN_STEP = 1e-9
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _cold_cells(seed: int) -> list[LiRequest]:
    # Every order sits at a fixed point of its cell, which the seed moves by
    # at most a tenth of the cell: a cold request's cost changes steeply
    # with the order, and uniform draws over the cells made the median cost
    # of two seeds differ by 40%.
    rng = _rng(seed, "cold")
    lo, hi = COLD_SERIES_RANGE
    orders: list[complex] = []
    for k in range(COLD_SERIES_CELLS):
        re = lo + (hi - lo) * (k + 0.5 + rng.uniform(-0.1, 0.1)) / COLD_SERIES_CELLS
        # a third of the orders are complex, spread evenly over the routes
        im = 2.0 * ((k * _GOLDEN) % 1.0) - 1.0 + rng.uniform(-0.02, 0.02)
        orders.append(complex(re, im if (k // 3) % 3 == 2 else 0.0))
    (r_lo, r_hi), d = COLD_REFLECTION_RANGE, rng.uniform(-0.01, 0.01)
    orders.append(complex(r_lo + 0.25 * (r_hi - r_lo) + d, 0.5 + rng.uniform(-0.02, 0.02)))
    orders.append(complex(r_lo + 0.75 * (r_hi - r_lo) + d, 0.0))
    for k, m in enumerate(COLD_NEAR_INTEGERS):
        # gaps spread log-evenly over [1e-6, 1e-4], each moved by up to 5%
        gap = 1e-6 * 100.0 ** ((k + 0.5) / len(COLD_NEAR_INTEGERS)) * (1.0 + rng.uniform(-0.05, 0.05))
        orders.append(complex(m + (-1.0) ** k * gap))
    reqs: list[LiRequest] = []
    for k, s in enumerate(orders):
        # Cell k's z sits at a fixed point of a golden-ratio design over its
        # |z| band and arg z, moved by at most 0.002 in |z| and 0.02 in arg z,
        # so that the seed changes the orders but hardly the quadrature work
        # each one takes.
        lo, hi = COLD_RADIUS_BANDS[k % 4]
        r = lo + (hi - lo) * ((k * _GOLDEN) % 1.0) + rng.uniform(-0.002, 0.002)
        theta = math.pi * (2.0 * ((k * _GOLDEN**2) % 1.0) - 1.0) + rng.uniform(-0.02, 0.02)
        reqs.append((s, _polar(min(r, hi), theta), THEOREM_TAGS[k % 3], KERNEL_TOL))
    rng.shuffle(reqs)
    return reqs


def _cold_pass(seed: int, index: int) -> list[LiRequest]:
    # Away from the nearest integer, so that the near-integer gaps only grow.
    step = index * COLD_TWIN_STEP
    return [(s - step if s.real < round(s.real) else s + step, z, tag, tol)
            for s, z, tag, tol in _cold_cells(seed)]


# ---------------------------------------------------------------------------
# kernel-sweep: kernel and Bernoulli routes at a few fixed orders, warm cache.

SWEEP_KERNEL_ORDERS = (2.75 + 0j, 3.25 + 0.75j)
SWEEP_BERNOULLI = (("bernoulli7a", 3 + 0j), ("bernoulli7b", 2 + 0j), ("bernoulli7c", 4 + 0j))
SWEEP_Z = 9  # 81 requests a pass: an odd count keeps the median off a gap
SWEEP_WARM_Z = 12


def _sweep_z(rng: random.Random, n: int, shift: float) -> list[complex]:
    return [_polar(0.05 + 0.85 * u[0], 2.0 * math.pi * u[1]) for u in _design(rng, n, 2, shift)]


def _sweep_requests(zs: list[complex]) -> list[LiRequest]:
    reqs: list[LiRequest] = []
    for z in zs:
        for s in SWEEP_KERNEL_ORDERS:
            for tag in THEOREM_TAGS:
                reqs.append((s, z, tag, KERNEL_TOL))
        for tag, s in SWEEP_BERNOULLI:
            reqs.append((s, z, tag, KERNEL_TOL))
    return reqs


def _sweep_pass(seed: int) -> list[LiRequest]:
    reqs = _sweep_requests(_sweep_z(_rng(seed, "sweep"), SWEEP_Z, 0.5))
    _rng(seed, "sweep-order").shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# cli-mix: lirep.cli.main(argv) in json format.


def _lit(v: complex) -> str:
    """A complex literal in the CLI's syntax (round-trips exactly)."""
    if v.imag == 0.0:
        return repr(v.real)
    return f"{v.real!r}{'+' if v.imag >= 0 else '-'}{abs(v.imag)!r}i"


def _cli_pass(seed: int) -> list[CliRequest]:
    # Nine commands (an odd count) at fixed points that the seed moves by a
    # little: the workload measures the CLI layers, not the input mix.
    rng = _rng(seed, "cli")

    def near(s: complex, d: float = 0.05) -> str:
        return _lit(s + complex(rng.uniform(-d, d), rng.uniform(-d, d) if s.imag else 0.0))

    def z_near(r: float, theta: float) -> str:
        return _lit(_polar(r * (1.0 + rng.uniform(-0.02, 0.02)), theta + rng.uniform(-0.02, 0.02)))

    # Every value goes in --opt=value form: argparse reads "--z -0.3+0.5i"
    # as a missing value followed by an unknown option and exits with 2.
    argvs = [
        ("eval", f"--s={near(2.2 + 0.8j)}", f"--z={z_near(0.8, 1.0)}"),
        ("eval", f"--s={near(2.6)}", f"--z={z_near(0.6, -2.0)}", "--rep=classical-log"),
        ("eval", f"--s={near(-0.5 + 1.5j)}", f"--z={z_near(0.7, 2.5)}", "--rep=series"),
        ("eval", f"--s={near(3.6)}", f"--z={z_near(0.5, 0.7)}", "--rep=theorem6a", "--tol=1e-9"),
        ("eval", "--s=4", f"--z={z_near(2.5, -2.2)}", "--rep=inversion-int"),
        ("eval", f"--s={near(3.3)}", f"--z={z_near(0.45, 1.9)}", "--rep=all", "--tol=1e-9"),
        ("crosscheck", f"--radii={0.3 + rng.uniform(-0.01, 0.01)!r},{0.6 + rng.uniform(-0.01, 0.01)!r}",
         "--angles=2", f"--s-list={near(3.8)}"),
        ("zeta-odd", "--n=2"),
        ("lemma-check", "--n-max=3", f"--z={z_near(0.6, -0.9)}"),
    ]
    return [argv + ("--format=json",) for argv in argvs]


# ---------------------------------------------------------------------------
# Calling the library.


@dataclass(frozen=True)
class Outcome:
    """What one request returned.

    For li_eval: value, error_estimate and converged, or the exception name.
    For the CLI: exit code and stdout.
    """

    value: complex | None = None
    error_estimate: float | None = None
    converged: bool = False
    error: str | None = None
    exit_code: int | None = None
    stdout: str | None = None


def li_caller(lirep) -> Callable[[LiRequest], Callable[[], Outcome]]:
    """Prepare each request outside the timer; the returned thunk is timed.

    `li_eval` is looked up on its module at call time, so a traced run's
    wrapper is the one called.
    """
    polylog = lirep.polylog
    tags = {t.value: t for t in polylog.RepresentationTag}

    def prepare(req: LiRequest) -> Callable[[], Outcome]:
        s, z, tag, tol = req
        request = polylog.PolylogRequest(s=s, z=z, representation=tags[tag], tol=tol)

        def call() -> Outcome:
            try:
                res = polylog.li_eval(request)
            except lirep.LirepError as exc:
                return Outcome(error=type(exc).__name__)
            return Outcome(res.value, res.error_estimate, res.converged)

        return call

    return prepare


def cli_caller(lirep) -> Callable[[CliRequest], Callable[[], Outcome]]:
    cli = lirep.cli

    def prepare(argv: CliRequest) -> Callable[[], Outcome]:
        args = list(argv)

        def call() -> Outcome:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(args)
                except SystemExit as exc:  # argparse rejections
                    code = exc.code if isinstance(exc.code, int) else 2
            return Outcome(exit_code=code, stdout=out.getvalue())

        return call

    return prepare


# ---------------------------------------------------------------------------
# Workload table.


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "li" or "cli"
    # make_pass(seed, pass_index) -> requests of that pass
    make_pass: Callable[[int, int], list]
    # Pool workloads repeat one pass; kernel-cold moves its orders each pass.
    repeats_pass: bool
    # warm_up(lirep, seed): the part of set-up after `import lirep`.
    warm_up: Callable[[object, int], None]
    # Fixed tail percentile over the costs of a pass's requests: the highest
    # with at least ten requests beyond it. cli-mix's pass holds nine
    # commands, so its tail is the costliest command.
    tail_pct: float


def _run_all(prepare, reqs) -> None:
    for req in reqs:
        prepare(req)()


def _warm_auto(lirep, seed: int) -> None:
    _run_all(li_caller(lirep), _auto_pass(seed))


def _warm_cli(lirep, seed: int) -> None:
    # Also fills the node cache for the few kernel requests cli-mix sends.
    _run_all(cli_caller(lirep), _cli_pass(seed))


def _warm_cold(lirep, seed: int) -> None:
    # An order outside the drawn range, so that no timed order is warm.
    prepare = li_caller(lirep)
    _run_all(prepare, [(4.75 + 0j, 0.3 + 0.2j, tag, KERNEL_TOL) for tag in THEOREM_TAGS])


def _warm_sweep(lirep, seed: int) -> None:
    prepare = li_caller(lirep)
    _run_all(prepare, _sweep_requests(_sweep_z(_rng(seed, "sweep-warm"), SWEEP_WARM_Z, 0.2)))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("auto-mix", "li", lambda seed, i: _auto_pass(seed), True,
                 _warm_auto, 95.0),
        Workload("kernel-cold", "li", _cold_pass, False, _warm_cold, 67.0),
        Workload("kernel-sweep", "li", lambda seed, i: _sweep_pass(seed), True,
                 _warm_sweep, 85.0),
        Workload("cli-mix", "cli", lambda seed, i: _cli_pass(seed), True,
                 _warm_cli, 100.0),
    )
}
