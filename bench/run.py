"""lirep benchmark: run one workload for one seed and print its metrics.

    python3 bench/run.py --workload auto-mix --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; lirep is imported from `src/`.
The run has four phases, in this order:

1. Set-up, timed: `import lirep` plus the workload's warm-up, in this
   fresh interpreter and again in fresh child interpreters; the median is
   `setup_s`.
2. The timed loop: one caller, closed loop, whole passes of the workload's
   requests until `--seconds` have been spent in them. Each request of a
   pass costs the fastest of its repeats; throughput, median and tail come
   from those costs. All times are read at a fixed reference speed of the
   machine, measured in the same run (see "Machine speed" below). With
   `--trace 1` the calls between lirep modules are wrapped and timed (see
   tracing.py).
3. Peak resident memory, read before anything else is imported.
4. Checks, off the clock: every result is compared with an mpmath
   reference at 30 digits, and every repeated request must return a
   bit-identical result.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# One caller thread, and no BLAS threads either: on a 2-CPU machine a
# second OpenBLAS thread made the Clausen series' dot products no faster,
# but their wall time 25% noisier. Set before numpy is first imported; the
# set-up children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402  (needs BENCH on sys.path)

#: Set-up is measured in this interpreter plus SETUP_SAMPLES - 1 children.
SETUP_SAMPLES = 5
EPS = 2.0**-52
#: A converged result further than this (relative to max(1, |ref|)) from
#: its reference is wrong, not merely inaccurate: the run is not correct.
SANITY_REL = 1e-6
REF_DPS = 30

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_frac": "ratio",
    "tol_met_frac": "ratio",
    "bound_held_frac": "ratio",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# Set-up.


def load_lirep():
    if not (SRC / "lirep" / "__init__.py").is_file():
        raise SystemExit(f"error: no lirep sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lirep
    import lirep.cli  # noqa: F401  (cli-mix calls it; the tracer wraps it)

    if Path(lirep.__file__).resolve().parent != (SRC / "lirep").resolve():
        raise SystemExit(f"error: imported lirep from {lirep.__file__}, not from {SRC}")
    return lirep


def set_up(workload: wl.Workload, seed: int):
    """Set up; returns (lirep, set-up seconds, the same at the reference speed).

    Set-up runs once, so it is read at the machine's speed of the moment:
    the median of a burst of calibration units right after it.
    """
    t0 = time.perf_counter()
    lirep = load_lirep()
    workload.warm_up(lirep, seed)
    seconds = time.perf_counter() - t0
    burst = [calibration_unit() for _ in range(SETUP_CAL_UNITS)]
    return lirep, seconds, seconds * CAL_REF_NS / statistics.median(burst)


def child_setup(name: str, seed: int) -> None:
    """Entry point of a set-up child: print its set-up time, raw and scaled."""
    _, seconds, scaled = set_up(wl.WORKLOADS[name], seed)
    print(repr(seconds), repr(scaled))


def setup_in_child(name: str, seed: int) -> tuple[float, float]:
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH)!r}); import run; "
        f"run.child_setup({name!r}, {seed})"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        timeout=150, check=True,
    )
    raw, scaled = proc.stdout.split()[-2:]
    return float(raw), float(scaled)


# ---------------------------------------------------------------------------
# Machine speed.
#
# The machine this was built on is two cores of a shared host. Its speed
# swings by up to 1.6 times, in phases that last from a fraction of a second
# to minutes, and the same seed ran 20% faster in one 20 s run than in the
# next. So every time a run reports is read at a fixed reference speed: the
# run also times a fixed calibration unit, between requests and after each
# set-up, and scales its times by CAL_REF_NS over the unit's own time,
# taken the same way as the requests' (see speed_factor). A change to lirep
# moves the requests' times but not the unit's.

#: Fastest time of one calibration unit on the reference machine (2 cores
#: of an Intel Xeon, Python 3.11, numpy 2.4), in ns.
CAL_REF_NS = 60_000
#: In the timed loop a unit runs after a request whenever this much time has
#: passed since the last one: up to 4,000 units in a 20 s run, 1.3% of it.
CAL_EVERY_NS = 5_000_000
#: Units timed right after each set-up.
SETUP_CAL_UNITS = 300


def calibration_unit() -> int:
    """Run one fixed unit of work like lirep's; return its wall time in ns.

    Complex arithmetic in a Python loop (as in the series and the
    quadrature driver) and a numpy dot product over 2,048 terms (as in the
    Clausen series). numpy is imported here, after lirep, so that set-up
    still pays for it.
    """
    import numpy as np

    x = np.arange(1.0, 2049.0)
    t0 = time.perf_counter_ns()
    z, a, p = 0j, 0.3 + 0.4j, 1 + 0j
    for k in range(1, 300):
        p *= a
        z += p / k
    np.dot(x**-2.5, np.sin(0.7 * x))
    return time.perf_counter_ns() - t0


def speed_factor(units: list[int], repeats: int) -> float:
    """Multiply a request's cost by this to read it at the reference speed.

    A request costs the fastest of its `repeats` repeats, spread over the
    run, so the unit is timed alike: the units are dealt into groups of
    about `repeats`, each spread over the run, and the unit's time is the
    median over the groups of each group's fastest.
    """
    groups = max(1, len(units) // max(1, repeats))
    return CAL_REF_NS / statistics.median(min(units[g::groups]) for g in range(groups))


# ---------------------------------------------------------------------------
# The timed loop.


def timed_loop(workload: wl.Workload, prepare, seed: int, seconds: float):
    """Whole passes until `seconds` of loop time are spent (at least one).

    Returns (requests, distinct index of each timed request, its position
    in its pass, outcomes, latencies in ns, passes as (first, end, seconds)
    over the timed requests, calibration units in ns). Requests are
    prepared outside the clock.
    """
    units: list[int] = []
    requests: list = []
    index: list[int] = []
    cells: list[int] = []
    outcomes: list[wl.Outcome] = []
    latencies: list[int] = []
    passes: list[tuple[int, int, float]] = []
    clock = time.perf_counter_ns
    loop_ns = 0
    last_unit = clock()
    p = 0
    while p == 0 or loop_ns < seconds * 1e9:
        if p == 0 or not workload.repeats_pass:
            reqs = workload.make_pass(seed, p)
            base = len(requests)
            requests.extend(reqs)
            thunks = [prepare(r) for r in reqs]
        start = clock()
        for k, thunk in enumerate(thunks):
            t0 = clock()
            out = thunk()
            t1 = clock()
            latencies.append(t1 - t0)
            outcomes.append(out)
            index.append(base + k)
            cells.append(k)
            if t1 - last_unit > CAL_EVERY_NS:
                units.append(calibration_unit())
                last_unit = clock()
        pass_ns = clock() - start
        passes.append((len(outcomes) - len(thunks), len(outcomes), pass_ns / 1e9))
        loop_ns += pass_ns
        p += 1
    if not units:
        units.append(calibration_unit())
    return requests, index, cells, outcomes, latencies, passes, units


# ---------------------------------------------------------------------------
# Checks against mpmath references.


@dataclass
class Verdict:
    """How one distinct request fared against its reference."""

    failed: bool = False  # raised, unconverged, or unexpected exit code
    tol_miss: bool = False  # |value - ref| > tol on some value
    bounded: bool = False  # carries converged error estimates
    bound_violation: bool = False  # |value - ref| > estimate + 8 eps max(1, |ref|)
    wrong: str | None = None  # why the result is not correct at all


class References:
    def __init__(self):
        import mpmath

        mpmath.mp.dps = REF_DPS
        self.mp = mpmath
        self._li: dict[tuple[complex, complex], object] = {}

    def li(self, s: complex, z: complex):
        key = (s, z)
        if key not in self._li:
            self._li[key] = self.mp.polylog(self.mp.mpc(s), self.mp.mpc(z))
        return self._li[key]

    def check(self, v: Verdict, value: complex, ref, tol: float, estimate, converged: bool) -> None:
        mp = self.mp
        err = float(abs(mp.mpc(value) - ref))
        scale = max(1.0, float(abs(ref)))
        if err > tol:
            v.tol_miss = True
        if estimate is not None and converged:
            v.bounded = True
            if err > estimate + 8.0 * EPS * scale:
                v.bound_violation = True
        if converged and not err <= SANITY_REL * scale:
            v.wrong = f"|value - ref| = {err:.3e} at value {value!r}, ref {complex(ref)!r}"


def judge_li(refs: References, req, out: wl.Outcome) -> Verdict:
    s, z, _, tol = req
    v = Verdict()
    if out.error is not None or not out.converged:
        v.failed = True
    if out.error is None:
        refs.check(v, out.value, refs.li(s, z), tol, out.error_estimate, out.converged)
    return v


def _flag(argv, name: str, default: float) -> float:
    prefix = f"--{name}="
    return next((float(a[len(prefix):]) for a in argv if a.startswith(prefix)), default)


def judge_cli(refs: References, argv, out: wl.Outcome) -> Verdict:
    v = Verdict()
    if out.exit_code != 0:
        v.failed = True
        return v
    try:
        payload = json.loads(out.stdout)
    except ValueError:
        v.wrong = f"stdout is not JSON: {out.stdout[:200]!r}"
        return v
    command = argv[0]
    if command in ("eval", "crosscheck"):
        tol = _flag(argv, "tol", 1e-10 if command == "eval" else 1e-9)
        rows = payload["rows"] if command == "crosscheck" else payload
        rows = rows if isinstance(rows, list) else [rows]
        for row in rows:
            s, z = complex(*row["s"]), complex(*row["z"])
            refs.check(v, complex(*row["value"]), refs.li(s, z), tol,
                       row["error_estimate"], row["converged"])
    elif command == "zeta-odd":
        ref = refs.mp.zeta(payload["zeta_argument"])
        for row in payload["rows"]:
            refs.check(v, complex(row["value"]), ref, _flag(argv, "tol", 1e-10), None, True)
    elif command == "lemma-check":
        # The moments have exact closed forms (lemma_expected); the CLI
        # reports the worst deviation from them.
        if not payload["pass"]:
            v.wrong = "lemma-check reported a failure"
        if payload["worst_abs_dev"] > _flag(argv, "tol", 1e-11):
            v.tol_miss = True
    else:
        v.wrong = f"unknown command {command!r}"
    return v


# ---------------------------------------------------------------------------
# Metrics.


def cell_costs(cells: list[int], latencies: list[int], runs: list[Verdict]):
    """The cost of each request of a pass: the fastest of its timed repeats.

    On a shared host a mean or median over the loop says as much about the
    neighbours as about lirep. A request's fastest repeat is its time in
    the fastest phase of the run; speed_factor reads the calibration unit
    the same way, so that the scaled cost does not depend on how fast that
    phase was.

    Returns (cost in ms per position, share of successful repeats per
    position, repeats per position), in pass order.
    """
    best: dict[int, int] = {}
    ok: dict[int, int] = {}
    count: dict[int, int] = {}
    for c, ns, v in zip(cells, latencies, runs):
        best[c] = min(best.get(c, ns), ns)
        ok[c] = ok.get(c, 0) + (not v.failed)
        count[c] = count.get(c, 0) + 1
    order = sorted(best)
    return ([best[c] / 1e6 for c in order], [ok[c] / count[c] for c in order],
            [count[c] for c in order])


def tail(costs_ms: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile `pct`; returns (value, requests beyond it)."""
    ordered = sorted(costs_ms)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def digest(outcomes: list[wl.Outcome]) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(repr((o.value, o.error_estimate, o.converged, o.error, o.exit_code, o.stdout)).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="loop time to spend; 0 runs exactly one pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    lirep, *setup_main = set_up(workload, args.seed)
    prepare = (wl.li_caller if workload.kind == "li" else wl.cli_caller)(lirep)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(lirep)
        tracer.install()
    try:
        requests, index, cells, outcomes, latencies, passes, units = timed_loop(
            workload, prepare, args.seed, args.seconds
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_layer = tracer.per_layer(len(outcomes)) if tracer is not None else None

    setup_samples = [tuple(setup_main)] + [
        setup_in_child(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
    ]

    # Off the clock: references and checks, once per distinct request.
    refs = References()
    judge = judge_li if workload.kind == "li" else judge_cli
    first: dict[int, wl.Outcome] = {}
    verdicts: dict[int, Verdict] = {}
    problems: list[str] = []
    for k, out in zip(index, outcomes):
        if k not in first:
            first[k] = out
            verdicts[k] = judge(refs, requests[k], out)
            if verdicts[k].wrong:
                problems.append(f"{requests[k]}: {verdicts[k].wrong}")
        elif out != first[k]:
            problems.append(f"{requests[k]}: a repeat returned {out}, first {first[k]}")
    if workload.kind == "li" and not workload.repeats_pass:
        orders = [req[0] for req in requests]
        if len(set(orders)) != len(orders):
            problems.append("kernel-cold drew an order twice")

    runs = [verdicts[k] for k in index]
    attempted = len(runs)
    failed = sum(v.failed for v in runs)
    completed = [v for v in runs if not v.failed]
    bounded = [v for v in runs if v.bounded]
    tol_miss_frac = sum(v.tol_miss for v in completed) / max(1, len(completed))
    bound_violation_frac = sum(v.bound_violation for v in bounded) / max(1, len(bounded))
    raw_ms, ok_share, repeats = cell_costs(cells, latencies, runs)
    speed = speed_factor(units, round(statistics.median(repeats)))
    cost_ms = [x * speed for x in raw_ms]
    tail_ms, beyond = tail(cost_ms, workload.tail_pct)
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setup_samples),
        "throughput_rps": sum(ok_share) / (sum(cost_ms) / 1e3),
        "latency_p50_ms": statistics.median(cost_ms),
        "latency_tail_ms": tail_ms,
        "ok_frac": 1.0 - failed / attempted,
        "tol_met_frac": 1.0 - tol_miss_frac,
        "bound_held_frac": 1.0 - bound_violation_frac,
        "peak_rss_mb": peak_rss_mb,
    }

    for p in problems[:20]:
        print(f"check failed: {p}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    loop_s = sum(sec for _, _, sec in passes)
    print(f"  requests {attempted} in {len(passes)} passes, {loop_s:.3f} s of loop time;"
          f" distinct {len(first)}; {(attempted - failed) / loop_s:.6g} req/s over the whole loop")
    print(f"  setup samples (s, raw/scaled): {', '.join(f'{r:.4f}/{s:.4f}' for r, s in setup_samples)}")
    print(f"  each of the {len(cost_ms)} requests of a pass costs the fastest of its"
          f" {min(repeats)} to {max(repeats)} repeats")
    print(f"  calibration: {len(units)} units, fastest {min(units) / 1e3:.2f} us, median"
          f" {statistics.median(units) / 1e3:.2f} us, reference {CAL_REF_NS / 1e3:.2f} us:"
          f" times are scaled by {speed:.4f}")
    print(f"  unscaled: throughput {sum(ok_share) / (sum(raw_ms) / 1e3):.6g} req/s,"
          f" p50 {statistics.median(raw_ms):.6g} ms, tail {tail(raw_ms, workload.tail_pct)[0]:.6g} ms")
    print(f"  latency_tail_ms is p{workload.tail_pct:g} of those {len(cost_ms)} costs"
          f" ({beyond} beyond it)")
    print(f"  failed_frac {failed / attempted:.6g} ratio  (ok_frac = 1 - failed_frac)")
    print(f"  tol_miss_frac {tol_miss_frac:.6g} ratio  (tol_met_frac = 1 - tol_miss_frac,"
          f" over {len(completed)} completed)")
    print(f"  bound_violation_frac {bound_violation_frac:.6g} ratio  (bound_held_frac = 1 -"
          f" bound_violation_frac, over {len(bounded)} converged with estimates)")
    print(f"  first-pass values sha256 {digest(outcomes[:passes[0][1]])}")
    if per_layer is None:
        reported = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        print(f"  throughput_rps is {metrics['throughput_rps']:.6g} req/s untraced")
    else:
        from tracing import PER_LAYER

        reported = {name: {"value": per_layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
        print(f"  throughput_rps is {metrics['throughput_rps']:.6g} req/s traced")
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"spans": tracer.span_table(), "per_layer": per_layer}, indent=1))
        print(f"  span table written to {path.relative_to(ROOT)}")
    for name, m in reported.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
