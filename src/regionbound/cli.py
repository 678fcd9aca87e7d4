"""Command-line surface.

The library returns exact integers and fractions; every text format of
them lives here.  Exit codes: 0 success (also when the reader closes
stdout early), 1 user/input error, 2 resource cap exceeded.
"""
from __future__ import annotations

import decimal
import functools
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator

import click

from . import archspec, engine, oracle, transfer
from .gamma import (DEFAULT_COLUMN_CAP, ColumnCapExceeded, GammaProvider,
                    GammaVariant)


def scientific(n: int | decimal.Decimal, digits: int = 4) -> str:
    """Render an exact integer as "m.mmm x 10^e" with the given mantissa digits."""
    if digits < 1:
        raise ValueError("need at least one mantissa digit")
    if n < 0:
        raise ValueError("bounds are non-negative")
    with _context(digits):
        d = +decimal.Decimal(n)
    return _mantissa(d, digits)


def exact(n: int | decimal.Decimal) -> str:
    """All decimal digits of an integer.  Unlike ``str``, this has no
    4,300-digit limit, which the parsers keep for their input.  To render
    one bound twice, pass a Decimal: converting an int is quadratic."""
    return str(decimal.Decimal(n))


def format_ratio(ratio: Fraction, digits: int = 4) -> str:
    """Decimal rendering of an exact rational, scientific when large."""
    with _context(digits):
        d = decimal.Decimal(ratio.numerator) / decimal.Decimal(ratio.denominator)
    exp = d.adjusted()
    if 0 <= exp < digits + 3:
        if exp + 1 > digits:  # more integer digits than precision
            with _context(exp + 1):
                d = decimal.Decimal(ratio.numerator) / decimal.Decimal(
                    ratio.denominator)
        return str(d)
    return _mantissa(d, digits)


def _context(prec: int):
    """A local decimal context of ``prec`` digits, whatever the caller's,
    whose exponent range holds a bound of a million digits or more."""
    return decimal.localcontext(decimal.Context(
        prec=prec, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN))


def _mantissa(d: decimal.Decimal, digits: int) -> str:
    """A Decimal already rounded to ``digits`` digits as "m.mmm×10^e"."""
    ds = "".join(str(x) for x in d.as_tuple().digits).ljust(digits, "0")
    exp = d.adjusted()
    if digits == 1:
        return f"{ds}×10^{exp}"
    return f"{ds[0]}.{ds[1:]}×10^{exp}"


SWEEP_HEADER = "n0,ni,k,bound_ours,bound_serra,ratio"


def sweep_csv(rows: Iterable[tuple[int, int, int, int, int]],
              digits: int = 4) -> Iterator[str]:
    """The CSV lines of ``engine.sweep`` rows, each made when it is read,
    with the ratio serra/ours.  The header comes with the first row, so an
    error in making that row comes before any text."""
    head = SWEEP_HEADER + "\n"
    for n0, ni, k, bo, bs in rows:
        ratio = format_ratio(Fraction(bs, bo), digits)
        yield f"{head}{n0},{ni},{k},{exact(bo)},{exact(bs)},{ratio}\n"
        head = ""
    if head:
        yield head


@dataclass
class CliConfig:
    gamma_cap: int = DEFAULT_COLUMN_CAP
    mantissa_digits: int = 4
    halved_c: bool = False


def _emit(text: str | Iterable[str], output: str | None):
    """Write text, or each chunk of an iterable of text as it is made.
    The first chunk is made before ``output`` is opened, so an error
    raised before any output leaves no file."""
    chunks = iter((text,) if isinstance(text, str) else text)
    chunks = chain([next(chunks, "")], chunks)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        for chunk in chunks:
            click.echo(chunk, nl=False)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ColumnCapExceeded as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except BrokenPipeError:
            # the reader closed stdout: stop quietly, with fd 1 on
            # os.devnull so that the interpreter's final flush cannot raise
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(0)
        except (archspec.ArchSpecError, oracle.OracleError, ValueError,
                OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
    return wrapper


@click.group()
@click.option("--gamma-cap", type=int, default=DEFAULT_COLUMN_CAP,
              show_default=True,
              help="Largest B block order a ReLU layer builds, "
                   "min(d_eff, n'); the largest n' for bmatrix and gamma.")
@click.option("--mantissa-digits", type=int, default=4, show_default=True,
              help="Significant digits in scientific renderings.")
@click.option("--maxout-c-halved", is_flag=True,
              help="Use the halved max-pooling hyperplane count.")
@click.pass_context
def main(ctx, gamma_cap, mantissa_digits, maxout_c_halved):
    """Exact upper bounds on ReLU-network linear region counts."""
    if gamma_cap < 1 or mantissa_digits < 1:
        click.echo("error: caps and digit counts must be positive", err=True)
        sys.exit(1)
    ctx.obj = CliConfig(gamma_cap, mantissa_digits, maxout_c_halved)


_variant_opt = click.option(
    "--variant", type=click.Choice(["ours", "serra", "both"]),
    default="both", show_default=True)


def _per_variant(cfg: CliConfig, variant: str, name: str, dims: str,
                 text) -> Iterator[str]:
    """The chunks of text(provider) for each selected variant; with
    "both", each part starts with the line "# name[variant]dims".
    text(provider) is called before that line, so it fails first."""
    both = variant == "both"
    for v in ("ours", "serra") if both else (variant,):
        chunks = text(GammaProvider(GammaVariant(v), cap=cfg.gamma_cap))
        if both:
            yield f"# {name}[{v}]{dims}\n"
        yield from chunks


@main.command("gamma")
@_variant_opt
@click.option("--nprime", type=int, required=True)
@click.option("-o", "--output", type=click.Path(), default=None)
@click.pass_obj
@_guarded
def cmd_gamma(cfg: CliConfig, variant, nprime, output):
    """Dump the gamma table column(s) for n' hyperplanes, one histogram per line."""
    _emit(_per_variant(cfg, variant, "gamma", f"[n][{nprime}]",
                       lambda p: ("(" + ",".join(map(str, row)) + ")\n"
                                  for row in p.column(nprime))), output)


@main.command("bmatrix")
@_variant_opt
@click.option("--nprime", type=int, required=True)
@click.option("-o", "--output", type=click.Path(), default=None)
@click.pass_obj
@_guarded
def cmd_bmatrix(cfg: CliConfig, variant, nprime, output):
    """Dump the ReLU-layer B matrix for n' hyperplanes (appendix row layout)."""
    _emit(_per_variant(cfg, variant, "B", f"[{nprime}]",
                       lambda p: (" ".join(map(str, row)) + "\n" for row in
                                  transfer.b_matrix(p, nprime).dense_rows())),
          output)


def _load_arch(path: str):
    with open(path, encoding="utf-8") as fh:
        spec = archspec.parse(fh.read())
    return spec, archspec.resolve(spec)


@main.command("bound")
@click.argument("arch_file", type=click.Path(exists=True))
@click.option("--variant", type=click.Choice(["ours", "serra"]),
              default="ours", show_default=True)
@click.option("-o", "--output", type=click.Path(), default=None)
@click.pass_obj
@_guarded
def cmd_bound(cfg: CliConfig, arch_file, variant, output):
    """Exact region bound for an architecture file."""
    spec, stages = _load_arch(arch_file)
    provider = GammaProvider(variant, cap=cfg.gamma_cap)
    bound = decimal.Decimal(engine.evaluate(
        stages, variant, spec.input_nodes, provider=provider,
        halved_c=cfg.halved_c).bound)
    _emit(f"{exact(bound)}\n{scientific(bound, cfg.mantissa_digits)}\n",
          output)


@main.command("compare")
@click.argument("arch_file", type=click.Path(exists=True))
@click.option("-o", "--output", type=click.Path(), default=None)
@click.pass_obj
@_guarded
def cmd_compare(cfg: CliConfig, arch_file, output):
    """Bounds for both variants and their exact ratio."""
    spec, stages = _load_arch(arch_file)
    ours, serra, ratio = engine.compare(stages, spec.input_nodes,
                                        gamma_cap=cfg.gamma_cap,
                                        halved_c=cfg.halved_c)
    digits = cfg.mantissa_digits
    ours, serra = (decimal.Decimal(r.bound) for r in (ours, serra))
    _emit(f"ours={exact(ours)} ({scientific(ours, digits)})\n"
          f"serra={exact(serra)} ({scientific(serra, digits)})\n"
          f"ratio={format_ratio(ratio, digits)}\n", output)


class _Ints:
    """Integers of a list of ranges, iterated afresh on every pass and
    never expanded."""

    __slots__ = ("ranges",)

    def __init__(self, ranges: list[range]):
        self.ranges = ranges

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(self.ranges)


def _parse_int_list(text: str) -> _Ints:
    """Comma list and/or "a..b" ranges, e.g. "6,8,10" or "1..10".  A
    range stays a ``range``, so "1..999999999" takes no memory."""
    ranges = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            ranges.append(range(int(lo), int(hi) + 1))
        elif part:
            ranges.append(range(int(part), int(part) + 1))
    if not any(ranges):
        raise ValueError(f"no integers in '{text}'")
    return _Ints(ranges)


@main.command("sweep")
@click.option("--n0", type=int, required=True)
@click.option("--widths", required=True, help='e.g. "6,8,10,15,20,25"')
@click.option("--depths", required=True, help='e.g. "1..10"')
@click.option("-o", "--output", type=click.Path(), default=None)
@click.pass_obj
@_guarded
def cmd_sweep(cfg: CliConfig, n0, widths, depths, output):
    """CSV grid of both bounds over MLP widths and depths, row by row."""
    rows = engine.sweep(n0, _parse_int_list(widths), _parse_int_list(depths),
                        gamma_cap=cfg.gamma_cap)
    _emit(sweep_csv(rows, cfg.mantissa_digits), output)


@main.command("oracle")
@click.argument("net_file", type=click.Path(exists=True))
@click.option("--method", type=click.Choice(["sweep1d", "pattern"]),
              default="sweep1d", show_default=True)
@click.option("--samples", type=int, default=10000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("-o", "--output", type=click.Path(), default=None)
@click.pass_obj
@_guarded
def cmd_oracle(cfg: CliConfig, net_file, method, samples, seed, output):
    """Ground-truth region count of a concrete net, checked against the bound."""
    with open(net_file, encoding="utf-8") as fh:
        net = oracle.net_from_json(fh.read())
    if method == "sweep1d":
        result = oracle.count_regions_1d(net)
    else:
        result = oracle.pattern_lower_bound(net, samples, seed)
    blocks = tuple(archspec.Dense(layer.n_out, layer.relu)
                   for layer in net.layers)
    stages = archspec.resolve(archspec.NetworkSpec(net.n0, blocks))
    provider = GammaProvider(GammaVariant.OURS, cap=cfg.gamma_cap)
    bound = engine.evaluate(stages, GammaVariant.OURS, net.n0,
                            provider=provider).bound
    verdict = "OK" if result.count <= bound else "VIOLATION"
    _emit(f"count={exact(result.count)} bound={exact(bound)} "
          f"{verdict}\n", output)
    if verdict != "OK":
        sys.exit(1)


_DEMO_PAIRS = {
    "unet_small": ("unet_small", "ae_small"),
    "resnet_small": ("resnet_small", "resnet_small (no residual)"),
}


@main.command("demo")
@click.argument("name")
@click.option("-o", "--output", type=click.Path(), default=None)
@click.pass_obj
@_guarded
def cmd_demo(cfg: CliConfig, name, output):
    """Bound of a builtin architecture with vs without its special structure."""
    if name not in _DEMO_PAIRS:
        raise archspec.ArchSpecError(f"unknown demo name '{name}'")
    spec = archspec.builtin(name)
    plain = archspec.strip_wrappers(spec)
    label_with, label_without = _DEMO_PAIRS[name]
    provider = GammaProvider(GammaVariant.OURS, cap=cfg.gamma_cap)
    digits = cfg.mantissa_digits
    lines = []
    bounds = []
    for label, s in ((label_with, spec), (label_without, plain)):
        stages = archspec.resolve(s)
        bound = engine.evaluate(stages, GammaVariant.OURS, s.input_nodes,
                                provider=provider,
                                halved_c=cfg.halved_c).bound
        bounds.append(bound)
        d = decimal.Decimal(bound)
        lines.append(f"{label}: {exact(d)} ({scientific(d, digits)})")
    lines.append(f"ratio={format_ratio(Fraction(*bounds), digits)}")
    _emit("\n".join(lines) + "\n", output)


if __name__ == "__main__":
    main()
