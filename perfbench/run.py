"""regionbound benchmark: seeded workloads, end-to-end metrics, bound gate.

Run from the repository root:

    python3 perfbench/run.py                        # all workloads
    python3 perfbench/run.py --workload mlp_cold --seed 3
    python3 perfbench/run.py --workload skip_warm --trace 1   # per layer

Each workload runs in its own fresh single-threaded process (worker.py),
as a closed loop with one caller.  Set-up time is the median over several
fresh processes.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the exit status is non-zero when
any check failed.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"   # run_seconds there is the default --seconds

WORKLOADS = ("mlp_cold", "sweep_warm", "skip_warm", "oracle_1d")
E2E_METRICS = (
    ("throughput_ops_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)
SETUP_PROCESSES = 7      # fresh processes timed to "ready", median reported
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run (not a failed check)."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args: argparse.Namespace, workload: str, phase: str
           ) -> tuple[float, list[dict]]:
    """Run one worker; return (seconds from spawn to ready, its JSON lines)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--phase", phase]
    if args.ops is not None:
        cmd += ["--ops", str(args.ops)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    if not lines or "ready" not in lines[0]:
        raise BenchError(f"{workload} worker reported no set-up")
    return lines[0]["ready"] - start, lines[1:]


def _git_commit() -> str:
    """HEAD of the git checkout the benchmark runs in, or "unknown"."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _golden_check(workload: str, seed: int, pool: int, digest: str) -> str:
    """"match", "MISMATCH", or "none" when no golden digest covers this run."""
    try:
        golden = json.loads(GOLDEN.read_text())
    except FileNotFoundError:
        return "none"
    entry = golden.get(workload)
    if not entry or entry["seed"] != seed or entry["pool"] != pool:
        return "none"
    return "match" if entry["sha256"] == digest else "MISMATCH"


def run_workload(args: argparse.Namespace, workload: str) -> dict:
    """Run one workload and print its report; return the result object."""
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROCESSES - 1):
            setups.append(_spawn(args, workload, "setup")[0])
    ready, lines = _spawn(args, workload, "run")
    setups.append(ready)
    if len(lines) != 1:
        raise BenchError(f"{workload} worker printed no result")
    res = lines[0]

    attempted, failed = res["attempted"], res["failed"]
    golden = _golden_check(workload, args.seed, res["pool"], res["digest"])
    if golden != "none":
        attempted += 1  # the digest comparison is one more check
        failed += golden == "MISMATCH"

    if args.trace:
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        values = res["metrics"]
    else:
        units = dict(E2E_METRICS)
        values = dict(res["metrics"], setup_s=statistics.median(setups))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    meta = dict(res["meta"], seed=args.seed, workload=workload,
                nproc=os.cpu_count(), commit=_git_commit(),
                platform=platform.platform())
    print(f"== {workload}  seed={args.seed}  ops={res['ops']}  "
          f"trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:<14.6g} {m['unit']}")
    print(f"  {'error_rate':36s} {failed / attempted:<14.6g} ratio")
    print(f"# digest {workload} seed={args.seed} pool={res['pool']} "
          f"sha256={res['digest']} golden={golden}")
    if res["spans"]:
        print(f"# spans {res['spans']}")
    if res["context"]:
        print("# context " + "  ".join(
            f"{k}={v:.6g}" for k, v in res["context"].items()))
    if res["absent"]:
        print(f"# absent (reported as 0): {' '.join(res['absent'])}")
    if args.trace:
        zero = [name for name, m in metrics.items() if m["value"] == 0]
        if zero:
            print(f"# zero on this workload: {' '.join(zero)}")
    for note in res["notes"]:
        print(f"# FAILED {workload} {note}")
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="length of the timed phase "
                         "(default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--ops", type=int, default=None,
                    help="run exactly this many operations (smoke tests)")
    args = ap.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        ap.error("--ops must be positive")
    if args.seconds is None:
        args.seconds = json.loads(SPEC.read_text())["run_seconds"]

    if not (ROOT / "src" / "regionbound" / "__init__.py").is_file():
        print(f"error: no regionbound sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    results = []
    try:
        for workload in ([args.workload] if args.workload else WORKLOADS):
            results.append(run_workload(args, workload))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        summary = results[0]
    else:
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{k}": v for w, r in zip(WORKLOADS, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
