import decimal
import gc
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import (build_gamma1n_witness, gamma_entry, net_to_json,
                      parse_histogram)
import regionbound
from regionbound import archspec, cli, engine, transfer
from regionbound.cli import _parse_int_list, main, sweep_csv
from regionbound.gamma import GammaProvider


@pytest.fixture
def runner():
    return CliRunner()


def mlp_file(tmp_path, n0, widths, name="arch.json"):
    spec = archspec.NetworkSpec(
        n0,
        tuple(archspec.Dense(w, True) for w in widths)
        + (archspec.Dense(1, False),))
    path = tmp_path / name
    path.write_text(json.dumps(archspec.render(spec)))
    return str(path)


class TestGamma:
    def test_nprime_one(self, runner):
        res = runner.invoke(main, ["gamma", "--variant", "ours",
                                   "--nprime", "1"])
        assert res.exit_code == 0
        assert res.output == "(0,1)\n(1,1)\n"

    def test_both_variants_golden(self, runner):
        res = runner.invoke(main, ["gamma", "--nprime", "6"])
        assert res.exit_code == 0
        assert "# gamma[ours][n][6]" in res.output
        assert "# gamma[serra][n][6]" in res.output
        ours_part, serra_part = res.output.split("# gamma[serra][n][6]\n")
        ours_lines = [l for l in ours_part.splitlines()
                      if not l.startswith("#")]
        gp = GammaProvider("ours")
        assert [parse_histogram(l) for l in ours_lines] == \
            [gamma_entry(gp, n, 6) for n in range(7)]
        assert "(0,0,4,16,15,6,1)" in ours_part
        assert "(0,0,0,0,15,6,1)" in serra_part

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "g.txt"
        res = runner.invoke(main, ["gamma", "--variant", "serra",
                                   "--nprime", "2", "-o", str(out)])
        assert res.exit_code == 0
        assert res.output == ""
        assert out.read_text() == "(0,0,1)\n(0,2,1)\n(1,2,1)\n"


    def test_lines_are_written_as_they_are_made(self, runner, tmp_path):
        # neither the column nor its text is kept: joined, the text took
        # more memory than the file it makes
        out = tmp_path / "g.txt"
        gc.collect()
        tracemalloc.start()
        try:
            res = runner.invoke(main, ["gamma", "--variant", "ours",
                                       "--nprime", "400", "-o", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.exit_code == 0
        assert peak < out.stat().st_size / 2

    def test_cap_error_writes_nothing(self, runner, tmp_path):
        out = tmp_path / "g.txt"
        for extra in ([], ["-o", str(out)]):
            res = runner.invoke(main, ["--gamma-cap", "4", "gamma",
                                       "--nprime", "5", *extra])
            assert res.exit_code == 2
            assert res.stdout == ""
        assert not out.exists()

class TestBMatrix:
    def test_golden_column_four(self, runner):
        res = runner.invoke(main, ["bmatrix", "--nprime", "6"])
        assert res.exit_code == 0
        ours_part, serra_part = res.output.split("# B[serra][6]\n")
        ours_rows = [[int(x) for x in l.split()]
                     for l in ours_part.splitlines() if not l.startswith("#")]
        serra_rows = [[int(x) for x in l.split()]
                      for l in serra_part.splitlines() if l.strip()]
        assert [r[4] for r in ours_rows] == [0, 1, 14, 20, 22, 0, 0]
        assert [r[4] for r in serra_rows] == [0, 0, 15, 20, 22, 0, 0]
        # column indexed from one in the appendix layout
        assert [r[3] for r in ours_rows] == [0, 0, 4, 38, 0, 0, 0]
        assert [r[3] for r in serra_rows] == [0, 0, 0, 42, 0, 0, 0]

    def test_matches_library(self, runner):
        res = runner.invoke(main, ["bmatrix", "--variant", "ours",
                                   "--nprime", "4"])
        want = "".join(" ".join(map(str, row)) + "\n" for row in
                       transfer.b_matrix(GammaProvider("ours"), 4).dense_rows())
        assert res.output == want

    def test_cap_exceeded_exits_two(self, runner):
        res = runner.invoke(main, ["--gamma-cap", "4", "bmatrix",
                                   "--nprime", "5"])
        assert res.exit_code == 2
        assert "n'=5 exceeds cap 4" in res.stderr
        res = runner.invoke(main, ["--gamma-cap", "4", "bmatrix",
                                   "--nprime", "4"])
        assert res.exit_code == 0

    def test_rows_are_written_as_they_are_made(self, runner, tmp_path):
        # the dense rows and their text are not kept: the whole text took
        # twice the memory of the file it makes
        out = tmp_path / "b.txt"
        gc.collect()
        tracemalloc.start()
        try:
            res = runner.invoke(main, ["bmatrix", "--variant", "ours",
                                       "--nprime", "400", "-o", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.exit_code == 0
        assert peak < out.stat().st_size / 2


def cli_process(*args: str) -> subprocess.Popen:
    """``regionbound`` in a child process, its stdout and stderr piped."""
    src = str(Path(regionbound.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "regionbound.cli", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path))


class TestClosedStdout:
    """A reader that closes the pipe early, as ``| head`` does, ends the
    command with status 0 and nothing on stderr."""

    @pytest.mark.parametrize("args", [
        ["sweep", "--n0", "2", "--widths", "8", "--depths", "1..999999999"],
        ["gamma", "--nprime", "1024"],
        ["bmatrix", "--nprime", "1024"],
    ])
    def test_early_close_exits_zero(self, args):
        proc = cli_process(*args)
        try:
            lines = [proc.stdout.readline() for _ in range(3)]
            proc.stdout.close()
            err = proc.stderr.read()
            proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert all(line.endswith(b"\n") for line in lines)
        assert proc.returncode == 0
        assert err == b""

    def test_output_file_is_unaffected(self, tmp_path):
        out = tmp_path / "g.txt"
        proc = cli_process("gamma", "--variant", "serra", "--nprime", "2",
                           "-o", str(out))
        try:
            proc.stdout.close()
            err = proc.stderr.read()
            proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert proc.returncode == 0
        assert err == b""
        assert out.read_text() == "(0,0,1)\n(0,2,1)\n(1,2,1)\n"


class TestBound:
    def test_tiny_mlp(self, runner, tmp_path):
        res = runner.invoke(main, ["bound", mlp_file(tmp_path, 1, [2])])
        assert res.exit_code == 0
        assert res.output == "3\n3.000×10^0\n"

    def test_serra_variant(self, runner, tmp_path):
        path = mlp_file(tmp_path, 10, [6, 6])
        ro = runner.invoke(main, ["bound", path])
        rs = runner.invoke(main, ["bound", path, "--variant", "serra"])
        assert int(ro.output.splitlines()[0]) <= int(rs.output.splitlines()[0])

    def test_malformed_arch_exits_one(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        res = runner.invoke(main, ["bound", str(path)])
        assert res.exit_code == 1
        assert "malformed JSON" in res.stderr

    def test_bool_input_nodes_exits_one(self, runner, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(
            {"input": {"nodes": True},
             "blocks": [{"dense": {"out": 1, "relu": False}}]}))
        res = runner.invoke(main, ["bound", str(path)])
        assert isinstance(res.exception, SystemExit)
        assert res.exit_code == 1
        assert "input.nodes must be a positive integer" in res.stderr

    def test_deeply_nested_arch_exits_one(self, runner, tmp_path):
        path = tmp_path / "deep.json"
        body = '{"dense": {"out": 3, "relu": true}}'
        for _ in range(400):
            body = '{"residual": {"body": [' + body + ']}}'
        path.write_text('{"input": {"nodes": 3}, "blocks": [' + body + ']}')
        res = runner.invoke(main, ["bound", str(path)])
        assert isinstance(res.exception, SystemExit)
        assert res.exit_code == 1
        assert res.stderr.startswith("error: ")
        assert "Traceback" not in res.output

    def test_cap_exceeded_exits_two(self, runner, tmp_path):
        path = mlp_file(tmp_path, 10, [40])
        res = runner.invoke(main, ["--gamma-cap", "8", "bound", path])
        assert res.exit_code == 2
        assert "cap 8" in res.stderr

    def test_cap_error_names_the_width(self, runner, tmp_path):
        # the README example; the engine builds B but no gamma column
        res = runner.invoke(main, ["--gamma-cap", "4", "bound",
                                   mlp_file(tmp_path, 10, [6, 6])])
        assert res.exit_code == 2
        assert "n'=6 exceeds cap 4" in res.stderr
        assert "column" not in res.stderr


class TestCompare:
    def test_line_format(self, runner, tmp_path):
        res = runner.invoke(main, ["compare", mlp_file(tmp_path, 1, [2])])
        assert res.exit_code == 0
        assert res.output == ("ours=3 (3.000×10^0)\n"
                              "serra=3 (3.000×10^0)\n"
                              "ratio=1\n")

    def test_deep_narrow_ratio_above_one(self, runner, tmp_path):
        res = runner.invoke(main, ["compare", mlp_file(tmp_path, 10, [6] * 5)])
        ratio_line = res.output.splitlines()[-1]
        assert ratio_line.startswith("ratio=")
        assert ratio_line != "ratio=1"


class TestSweep:
    def test_grid(self, runner):
        res = runner.invoke(main, ["sweep", "--n0", "10",
                                   "--widths", "6,8", "--depths", "1..3"])
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert lines[0] == "n0,ni,k,bound_ours,bound_serra,ratio"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[:3] == ["10", "6", "1"]
        assert first[3] == first[4]  # single layer: variants agree

    @pytest.mark.parametrize("widths", ["5..3", ""])
    def test_empty_list_exits_one(self, runner, widths):
        res = runner.invoke(main, ["sweep", "--n0", "10",
                                   "--widths", widths, "--depths", "1..3"])
        assert res.exit_code == 1
        assert res.stderr.startswith("error: ")
        assert "n0,ni,k" not in res.stdout

    def test_ranges_are_not_expanded(self):
        # "1..1000000" expanded took 38 MiB
        gc.collect()
        tracemalloc.start()
        try:
            depths = _parse_int_list("1..999999999, 7, 3..2")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16
        # each pass starts afresh
        for _ in range(2):
            assert list(islice(depths, 3)) == [1, 2, 3]

    def test_rows_are_made_as_they_are_read(self, runner):
        lines = sweep_csv(engine.sweep(
            2, _parse_int_list("8"), _parse_int_list("1..999999999")))
        res = runner.invoke(main, ["sweep", "--n0", "2", "--widths", "8",
                                   "--depths", "1..3"])
        assert res.exit_code == 0
        assert "".join(islice(lines, 3)) == res.output
        assert res.output.splitlines()[1:] == \
            ["2,8,1,37,37,1", "2,8,2,1369,1369,1", "2,8,3,50653,50653,1"]

    def test_error_in_the_first_row_writes_nothing(self, runner, tmp_path):
        out = tmp_path / "s.csv"
        for extra in ([], ["-o", str(out)]):
            res = runner.invoke(main, ["--gamma-cap", "4", "sweep", "--n0",
                                       "10", "--widths", "6,8",
                                       "--depths", "1..3", *extra])
            assert res.exit_code == 2
            assert res.stdout == ""
        assert not out.exists()


class TestOneConversionPerBound:
    """Converting an int to Decimal is quadratic in its digits, so every
    bound that ``bound``, ``compare`` and ``demo`` print is converted once
    for both its exact and its scientific form."""

    def test_each_bound_is_converted_once(self, runner, tmp_path,
                                          monkeypatch):
        path = mlp_file(tmp_path, 10, [6] * 3)
        stages = archspec.resolve(archspec.mlp(10, 6, 3))
        ours, serra = (engine.evaluate(stages, v, 10).bound
                       for v in ("ours", "serra"))
        unet, ae = (engine.evaluate(archspec.resolve(s), "ours",
                                    s.input_nodes).bound
                    for s in (archspec.unet_small(), archspec.ae_small()))
        converted = []
        make = decimal.Decimal

        def counting(value="0", context=None):
            if isinstance(value, int):
                converted.append(value)
            return make(value, context)

        monkeypatch.setattr(decimal, "Decimal", counting)
        # the ratio's conversions are its own, not the bounds'
        monkeypatch.setattr(cli, "format_ratio", lambda ratio, digits: "")
        for args, bounds in ((["bound", path], [ours]),
                             (["bound", "--variant", "serra", path], [serra]),
                             (["compare", path], [ours, serra]),
                             (["demo", "unet_small"], [unet, ae])):
            converted.clear()
            res = runner.invoke(main, args)
            assert res.exit_code == 0, res.output
            assert converted == bounds, args


class TestLongBounds:
    """mlp(64, 64, 230) is bounded by an integer of 4,368 digits, past the
    4,300-digit limit of ``str(int)``; every command prints it in full."""

    @staticmethod
    def _bounds():
        stages = archspec.resolve(archspec.mlp(64, 64, 230))
        return [engine.evaluate(stages, v, 64).bound
                for v in ("ours", "serra")]

    @staticmethod
    def _int(text):
        return int(decimal.Decimal(text))  # int(text) has the same limit

    def test_sweep(self, runner):
        res = runner.invoke(main, ["sweep", "--n0", "64", "--widths", "64",
                                   "--depths", "230"])
        assert res.exit_code == 0, res.output
        row = res.output.splitlines()[1].split(",")
        assert row[:3] == ["64", "64", "230"]
        assert len(row[3]) == 4368
        assert [self._int(x) for x in row[3:5]] == self._bounds()

    def test_bound_and_compare(self, runner, tmp_path):
        path = mlp_file(tmp_path, 64, [64] * 230)
        res = runner.invoke(main, ["bound", path])
        assert res.exit_code == 0, res.output
        digits, sci = res.output.splitlines()
        ours, serra = self._bounds()
        assert self._int(digits) == ours
        assert sci.endswith("×10^4367")
        res = runner.invoke(main, ["compare", path])
        assert res.exit_code == 0, res.output
        lines = res.output.splitlines()
        assert self._int(lines[0][5:].split(" ")[0]) == ours
        assert self._int(lines[1][6:].split(" ")[0]) == serra


class TestOracle:
    def test_witness_ok(self, runner, tmp_path):
        net = build_gamma1n_witness(4)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(net_to_json(net)))
        res = runner.invoke(main, ["oracle", str(path)])
        assert res.exit_code == 0
        assert res.output == "count=5 bound=5 OK\n"

    def test_pattern_method(self, runner, tmp_path):
        net = build_gamma1n_witness(3)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(net_to_json(net)))
        res = runner.invoke(main, ["oracle", str(path), "--method", "pattern",
                                   "--samples", "200", "--seed", "3"])
        assert res.exit_code == 0
        count = int(res.output.split()[0].split("=")[1])
        assert 1 <= count <= 4

    def test_bad_net_exits_one(self, runner, tmp_path):
        path = tmp_path / "net.json"
        path.write_text('{"input": 1}')
        res = runner.invoke(main, ["oracle", str(path)])
        assert res.exit_code == 1

    def test_deeply_nested_net_exits_one(self, runner, tmp_path):
        path = tmp_path / "net.json"
        path.write_text('{"input": 1, "layers": ' + "[" * 5000 + "]" * 5000
                        + "}")
        res = runner.invoke(main, ["oracle", str(path)])
        assert isinstance(res.exception, SystemExit)
        assert res.exit_code == 1
        assert res.stderr.startswith("error: ")
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("doc", [
        {"input": 1, "layers": [{"weights": 5, "bias": [1], "relu": True}]},
        {"input": 1, "layers": [{"weights": [5], "bias": [1], "relu": True}]},
        {"input": 1, "layers": [{"weights": [[1]], "bias": 1, "relu": True}]},
        {"input": 1, "layers": 5},
        {"input": 1, "layers": [{"weights": [["1/0"]], "bias": [1],
                                 "relu": True}]},
        {"input": True, "layers": []},
        {"input": 1, "layers": [
            {"weights": [["1"], ["1", "2"]], "bias": ["0", "1"],
             "relu": True},
            {"weights": [["1", "1"]], "bias": ["0"], "relu": False}]},
    ])
    def test_malformed_net_is_a_clean_error(self, runner, tmp_path, doc):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        res = runner.invoke(main, ["oracle", str(path)])
        # an uncaught exception would also give exit code 1 under CliRunner
        assert isinstance(res.exception, SystemExit)
        assert res.exit_code == 1
        assert res.stderr.startswith("error: ")
        assert "Traceback" not in res.output


class TestDemo:
    def test_unet(self, runner):
        res = runner.invoke(main, ["demo", "unet_small"])
        assert res.exit_code == 0
        lines = res.output.splitlines()
        assert lines[0].startswith("unet_small: ")
        assert lines[1].startswith("ae_small: ")
        assert lines[2].startswith("ratio=")

    def test_unknown_name(self, runner):
        res = runner.invoke(main, ["demo", "vgg16"])
        assert res.exit_code == 1
        assert "unknown demo" in res.stderr


class TestGlobalOptions:
    def test_bad_cap_rejected(self, runner):
        res = runner.invoke(main, ["--gamma-cap", "0", "gamma",
                                   "--nprime", "2"])
        assert res.exit_code == 1

    def test_mantissa_digits(self, runner, tmp_path):
        res = runner.invoke(main, ["--mantissa-digits", "2", "bound",
                                   mlp_file(tmp_path, 3, [5])])
        assert res.output == "26\n2.6×10^1\n"

    def test_mantissa_digits_compare_and_demo(self, runner, tmp_path):
        # the text of the commit before the formatters moved to the CLI
        path = mlp_file(tmp_path, 10, [6] * 3)
        unet = ("unet_small: 2304314079928673780299400500130828619464199349"
                "97381599919217332784785728613446074721274978797816406812"
                "482935458847108223")
        ae = ("ae_small: 504832508666984214312043142865693164286864199626"
              "2953858456508311455708800884888120654592538407625")
        expected = {
            "1": ("ours=94928 (9×10^4)\nserra=96753 (1×10^5)\nratio=1\n",
                  f"{unet} (2×10^119)\n{ae} (5×10^96)\nratio=5×10^22\n"),
            "7": ("ours=94928 (9.492800×10^4)\n"
                  "serra=96753 (9.675300×10^4)\nratio=1.019225\n",
                  f"{unet} (2.304314×10^119)\n{ae} (5.048325×10^96)\n"
                  "ratio=4.564512×10^22\n")}
        for digits, (compare, demo) in expected.items():
            res = runner.invoke(main, ["--mantissa-digits", digits,
                                       "compare", path])
            assert (res.exit_code, res.output) == (0, compare)
            res = runner.invoke(main, ["--mantissa-digits", digits,
                                       "demo", "unet_small"])
            assert (res.exit_code, res.output) == (0, demo)
