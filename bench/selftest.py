"""Self-test of the benchmark: every workload, untraced and traced.

    python3 bench/selftest.py [--seed N] [--seconds S]

For each workload, runs `--seconds S` (default 0: one pass, the smallest
size) untraced and traced, prints the untraced run's end-to-end figures,
and checks that:

* both runs exit 0, end with the result line, and are correct;
* the untraced run reports every end-to-end metric of BENCHMARK.json with
  its unit, and prints the eight end-to-end figures by name and unit;
* the traced run reports every per-layer metric of BENCHMARK.json with its
  unit, and returns bit-identical values to the untraced run over the
  first pass (same digest);
* the traced run confirms the workload's design: no Clausen weights or
  node-cache lookups on auto-mix, the Clausen series and reflection take
  most of the time on kernel-cold, most node-cache lookups hit on
  kernel-sweep, and cli-mix goes through `cli.main`.

Finally it copies BENCHMARK.json and the benchmark's files, without the
sources, into a scratch directory under bench/out and checks that the
benchmark fails there without printing a result.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PRINTED = (
    ("setup_s", "s"), ("throughput_rps", "req/s"), ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"), ("failed_frac", "ratio"), ("tol_miss_frac", "ratio"),
    ("bound_violation_frac", "ratio"), ("peak_rss_mb", "MB"),
)


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=600,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}:\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(stdout: str) -> str:
    return re.search(r"first-pass values sha256 (\w+)", stdout).group(1)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_units(reported: dict, declared: list[dict], what: str) -> None:
    got = {name: m["unit"] for name, m in reported.items()}
    want = {m["name"]: m["unit"] for m in declared}
    check(got == want, f"{what} metrics differ from BENCHMARK.json: {got} != {want}")


def check_design(name: str, layer: dict) -> None:
    v = {k: m["value"] for k, m in layer.items()}
    if name == "auto-mix":
        check(v["clausen.pair.calls"] == 0, f"auto-mix computed Clausen pairs: {v}")
        check(v["polylog.node_cache.lookups"] == 0, f"auto-mix used the node cache: {v}")
    elif name == "kernel-cold":
        total = sum(x for k, x in v.items() if k.startswith("polylog.route.") and k.endswith(".ms"))
        clausen = v["clausen.series.ms"] + v["clausen.reflection.ms"]
        check(clausen > 0.5 * total, f"kernel-cold: Clausen weights took {clausen} of {total} ms/req")
    elif name == "kernel-sweep":
        check(v["polylog.node_cache.hit_ratio"] > 0.5, f"kernel-sweep hit ratio {v['polylog.node_cache.hit_ratio']}")
    elif name == "cli-mix":
        check(v["cli.main.calls"] > 0, "cli-mix never called cli.main")


def check_workload(spec: dict, name: str, seed: int, seconds: float) -> None:
    common = ("--workload", name, "--seed", str(seed), "--seconds", repr(seconds))
    plain = run(ROOT, *common, "--trace", "0")
    traced = run(ROOT, *common, "--trace", "1")
    for proc in (plain, traced):
        res = result_line(proc)
        check(res["correct"] is True and res["attempted"] >= 1, f"{name}: {res}")
    check_units(result_line(plain)["metrics"], spec["end_to_end"], "end-to-end")
    for metric, unit in PRINTED:
        printed = re.search(rf"^\s*{metric}\s+\S+\s+{re.escape(unit)}(\s|$)", plain.stdout, re.M)
        check(printed is not None, f"{name}: {metric} [{unit}] not printed")
        print(f"{name:13s} {printed.group(0).strip()}")
    layer = result_line(traced)["metrics"]
    check_units(layer, spec["per_layer"], "per-layer")
    check(digest(plain.stdout) == digest(traced.stdout), f"{name}: traced values differ from untraced values")
    check_design(name, layer)


def check_bare_checkout() -> None:
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "--workload", "auto-mix", "--seed", "1", "--seconds", "1", "--trace", "0")
        check(proc.returncode != 0, "benchmark succeeded without the sources")
        check('"correct"' not in proc.stdout, "benchmark printed a result without the sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description="Self-test of the lirep benchmark.")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        check_workload(spec, w["name"], args.seed, args.seconds)
        print(f"ok  {w['name']}")
    check_bare_checkout()
    print("ok  fails without the sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
