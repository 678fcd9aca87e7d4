"""Smoke test of the benchmark itself (not part of the package tests).

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py

Every workload runs a handful of operations with and without tracing;
the test checks that every metric BENCHMARK.json promises is printed with
its unit, that a tampered golden digest fails the gate, and that the
benchmark refuses to run without the package sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OPS = 4


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--ops", str(OPS),
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def test_spec_matches_code():
    sys.path.insert(0, str(HERE))
    try:
        import run
        import tracer
    finally:
        sys.path.remove(str(HERE))
    assert tuple(WORKLOADS) == run.WORKLOADS
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(run.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == list(tracer.LAYER_METRICS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"),
                                        ("1", "per_layer")])
def test_metrics_present_with_units(workload, trace, kind):
    proc = bench("--workload", workload, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    out = result(proc)
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == OPS * (1 + int(trace))
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    for name, m in out["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    assert "error_rate" in proc.stdout
    assert "# meta " in proc.stdout and "# digest " in proc.stdout


def test_broken_measure_is_absent_not_a_failure(monkeypatch):
    """A refactor that changes what a traced function returns must not make
    the traced call fail: the counter is reported absent and reads 0."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import tracer
    from regionbound import archspec, engine
    from regionbound.gamma import GammaVariant

    def broken(args, result):
        return result.no_such_field

    monkeypatch.setattr(tracer, "TARGETS", tuple(
        (module, path, name, {counter: broken for counter in measures})
        for module, path, name, measures in tracer.TARGETS))
    stages = archspec.resolve(archspec.builtin("unet_small"))
    n0 = archspec.builtin("unet_small").input_nodes
    expected = engine.evaluate(stages, GammaVariant.SERRA, n0).bound

    t = tracer.Tracer()
    t.install()
    try:
        t.op = 0
        got = engine.evaluate(stages, GammaVariant.SERRA, n0).bound
    finally:
        t.uninstall()
    assert got == expected
    assert {"transfer.cells_built", "engine.stages"} <= set(t.missing())
    metrics = t.layer_metrics(1, 1.0, 1.0, 0.0)
    assert metrics["transfer.cells_built"] == 0
    assert metrics["transfer.b_matrix.calls"] > 0


def _digest(proc: subprocess.CompletedProcess) -> str:
    line = next(x for x in proc.stdout.splitlines()
                if x.startswith("# digest "))
    return line.split("sha256=")[1].split()[0]


def _copy_tree(dest: Path, with_sources: bool) -> Path:
    """BENCHMARK.json and perfbench/ (and src/ if asked) copied to dest."""
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=skip)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest


def test_tampered_digest_fails_gate(tmp_path):
    tree = _copy_tree(tmp_path, with_sources=True)
    good = bench("--workload", "oracle_1d", cwd=tree)
    assert good.returncode == 0, good.stderr
    golden = tree / "perfbench" / "golden.json"

    def write_golden(sha):
        golden.write_text(json.dumps(
            {"oracle_1d": {"seed": 1, "pool": OPS, "sha256": sha}}))

    write_golden(_digest(good))
    ok = bench("--workload", "oracle_1d", cwd=tree)
    assert ok.returncode == 0 and "golden=match" in ok.stdout
    assert result(ok)["attempted"] == OPS + 1

    write_golden("0" * 64)
    bad = bench("--workload", "oracle_1d", cwd=tree)
    assert bad.returncode != 0
    out = result(bad)
    assert not out["correct"] and out["failed"] == 1


def test_refuses_without_sources(tmp_path):
    tree = _copy_tree(tmp_path, with_sources=False)
    proc = bench("--workload", WORKLOADS[0], cwd=tree)
    assert proc.returncode != 0
    assert proc.stdout == ""
