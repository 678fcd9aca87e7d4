"""One benchmark process: set up one workload, run it, check it, report.

run.py starts this in a fresh interpreter with ``src`` on the path, so
every workload pays its own imports and builds its own caches.  It prints
JSON lines on stdout: ``{"ready": <monotonic time>}`` once set-up is done,
then one result object.  With ``--phase setup`` it stops after the first.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans"   # span logs of traced runs
MAX_FAILURE_LINES = 5
MIN_OPS = 100          # so the 90th percentile has >= 10 samples beyond it
HARD_LIMIT_S = 120.0   # stop below MIN_OPS rather than overrun the run limit
                       # (a traced run makes two passes: a third each)


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 1)  # ceil
    return ordered[max(0, int(rank) - 1)]


class Runner:
    """Runs pool items, keeps each item's first result, counts failures."""

    def __init__(self, workload, items):
        self.workload = workload
        self.items = items
        self.results: dict[int, tuple | str] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, where: str, message: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_LINES:
            self.notes.append(f"{where}: {message}")

    def call(self, state, index: int):
        try:
            item = self.items[index % len(self.items)]
            return self.workload.run(state, item)
        except Exception as exc:  # counted as a failed operation by record()
            return exc

    def record(self, index: int, result) -> None:
        """Check one result; not part of any timed interval."""
        i = index % len(self.items)
        self.attempted += 1
        if isinstance(result, Exception):
            self.fail(f"op {i}", f"{type(result).__name__}: {result}")
            self.results.setdefault(i, "error")
            return
        first = self.results.setdefault(i, result)
        if first != result:
            self.fail(f"op {i}", f"result {result} differs from {first}")
        for problem in self.workload.check(self.items[i], result):
            self.fail(f"op {i}", problem)

    def timed_pass(self, state, seconds: float, limit: int | None,
                   tracer=None, hard_limit: float = HARD_LIMIT_S
                   ) -> tuple[list[float], float]:
        """Closed loop, one caller: run ops until ``seconds`` have passed, at
        least MIN_OPS are done and the last cycle is complete (or until
        ``hard_limit``), or exactly ``limit`` ops when it is given.  Whole
        cycles keep the cost mix of a run the same for every seed."""
        latencies: list[float] = []
        clock = time.perf_counter
        start = clock()
        while True:
            n = len(latencies)
            if limit is not None:
                if n >= limit:
                    break
            else:
                elapsed = clock() - start
                if (elapsed >= seconds and n >= MIN_OPS
                        and n % self.workload.cycle == 0) \
                        or elapsed >= hard_limit:
                    break
            if tracer is not None:
                tracer.op = n
            t0 = clock()
            result = self.call(state, n)
            latencies.append(clock() - t0)
            self.record(n, result)
        return latencies, clock() - start

    def fill(self, state) -> None:
        """Run the pool items no pass reached; the digest covers the pool."""
        for i in range(len(self.items)):
            if i not in self.results:
                self.record(i, self.call(state, i))

    def digest(self) -> str:
        h = hashlib.sha256()
        for i in range(len(self.items)):
            r = self.results[i]
            text = r if isinstance(r, str) else ",".join(map(str, r))
            h.update(f"{i}:{text}\n".encode())
        return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None)
    ap.add_argument("--phase", choices=("setup", "run"), default="run")
    args = ap.parse_args(argv)

    # -- set-up: everything up to "ready" counts toward setup_s -------------
    t_import = time.perf_counter()
    import regionbound.cli  # the import cost a user pays
    import_s = time.perf_counter() - t_import
    package = Path(regionbound.cli.__file__).resolve().parent
    if package != ROOT / "src" / "regionbound":
        print(f"error: imported regionbound from {package}",
              file=sys.stderr)
        return 2
    from workloads import REGISTRY
    from tracer import Tracer

    workload = REGISTRY[args.workload]
    pool = args.ops if args.ops is not None else workload.pool_size
    rng = random.Random(f"{workload.name}:{args.seed}")
    docs = workload.generate(rng, pool)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    items = [workload.prepare(doc, extra) for doc, extra in docs]
    ctx = workload.warm(items)
    if tracer:
        tracer.uninstall()
    emit({"ready": time.monotonic()})
    if args.phase == "setup":
        return 0

    # -- timed phase ----------------------------------------------------------
    runner = Runner(workload, items)
    spans = None
    context = {}
    if tracer is None:
        latencies, wall = runner.timed_pass(workload.fresh_state(ctx),
                                            args.seconds, args.ops)
        metrics = {
            "throughput_ops_s": len(latencies) / wall,
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": percentile(latencies, 0.9),
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        # untraced for half the time, then the same ops traced, each pass on
        # fresh state; the ratio of the two is the tracing overhead
        tracer.reset_counts()
        plain, plain_wall = runner.timed_pass(workload.fresh_state(ctx),
                                              args.seconds / 2, args.ops,
                                              hard_limit=HARD_LIMIT_S / 3)
        ops = len(plain)
        tracer.install()
        _, traced_wall = runner.timed_pass(workload.fresh_state(ctx),
                                                0, ops, tracer)
        tracer.uninstall()
        SPANS.mkdir(exist_ok=True)
        spans = SPANS / f"{workload.name}-{args.seed}.jsonl"
        tracer.write_spans(spans)
        metrics = tracer.layer_metrics(
            ops, traced_wall / ops, traced_wall / plain_wall, import_s)
        context = tracer.context(ops)
        latencies = plain
    runner.fill(workload.fresh_state(ctx))

    emit({
        "metrics": metrics,
        "ops": len(latencies),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "notes": runner.notes,
        "digest": runner.digest(),
        "pool": pool,
        "context": context,
        "absent": tracer.missing() if tracer else [],
        "spans": str(spans.relative_to(ROOT)) if spans else None,
        "meta": {
            "python": platform.python_version(),
            "implementation": getattr(
                sys.modules.get("regionbound.kernels"), "IMPLEMENTATION",
                None),
        },
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
