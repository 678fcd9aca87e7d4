"""Declarative architecture descriptions.

Parses the JSON schema, validates it, lowers convolutions to dense
stages, and resolves everything into a linear sequence of typed stages
(with nested bodies for skip/residual blocks).  Only shapes matter:
bounds hold over all weight values, so no parameters appear here.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields


class ArchSpecError(Exception):
    """Malformed or inconsistent architecture document."""


# -- block tree ----------------------------------------------------------------

@dataclass(frozen=True)
class Dense:
    out: int
    relu: bool


@dataclass(frozen=True)
class Conv:
    out_channels: int
    kernel: int
    stride: int
    padding: int
    relu: bool


@dataclass(frozen=True)
class AvgPool:
    factor: int


@dataclass(frozen=True)
class Unpool:
    factor: int


@dataclass(frozen=True)
class MaxPool:
    window: int


@dataclass(frozen=True)
class Skip:
    body: tuple


@dataclass(frozen=True)
class Residual:
    body: tuple


Block = Dense | Conv | AvgPool | Unpool | MaxPool | Skip | Residual


@dataclass(frozen=True)
class NetworkSpec:
    input_shape: int | tuple[int, int, int]  # flat node count or (c, h, w)
    blocks: tuple[Block, ...]

    @property
    def input_nodes(self) -> int:
        return _nodes(self.input_shape)


@dataclass(frozen=True)
class ResolvedStage:
    """A stage from ``n_in`` to ``n_out`` nodes, of one of four kinds:

    * ``dense``: an affine map, then a ReLU if ``relu``; conv, avgpool
      and unpool lower to it;
    * ``maxpool``: a max over windows of ``k`` nodes each;
    * ``skip``/``residual``: ``body`` run on the input, and its output
      concatenated to or added to the input.

    An affine map of rank r below n_in and n_out is dense(r) then
    dense(n_out), both without ReLU."""

    kind: str
    n_in: int
    n_out: int
    relu: bool = False
    k: int = 0
    body: tuple = field(default=())
    label: str = ""


# -- parsing -------------------------------------------------------------------

# a block's JSON kind and fields are its class name, lower case, and its
# dataclass fields, as ``render`` writes them
_BLOCK_FIELDS = {
    cls.__name__.lower(): {f.name: bool if f.type in ("bool", bool) else int
                           for f in fields(cls)}
    for cls in (Dense, Conv, AvgPool, Unpool, MaxPool)}


def _require_fields(kind: str, params, path: str) -> dict:
    fields = _BLOCK_FIELDS[kind]
    if not isinstance(params, dict):
        raise ArchSpecError(f"{path}: {kind} parameters must be an object")
    unknown = set(params) - set(fields)
    if unknown:
        raise ArchSpecError(
            f"{path}: unknown field(s) {sorted(unknown)} in {kind}")
    out = {}
    for name, typ in fields.items():
        if name not in params:
            raise ArchSpecError(f"{path}: missing field '{name}' in {kind}")
        val = params[name]
        if typ is bool:
            if not isinstance(val, bool):
                raise ArchSpecError(f"{path}: '{name}' must be a boolean")
        elif not isinstance(val, int) or isinstance(val, bool):
            raise ArchSpecError(f"{path}: '{name}' must be an integer")
        out[name] = val
    return out


def _parse_block(item, path: str) -> Block:
    if not isinstance(item, dict) or len(item) != 1:
        raise ArchSpecError(
            f"{path}: each block must be an object with exactly one key")
    kind, params = next(iter(item.items()))
    if kind in ("skip", "residual"):
        if not isinstance(params, dict) or set(params) != {"body"}:
            raise ArchSpecError(f"{path}: {kind} takes exactly a 'body' list")
        body_items = params["body"]
        if not isinstance(body_items, list) or not body_items:
            raise ArchSpecError(f"{path}: {kind} body must be non-empty")
        body = tuple(_parse_block(b, f"{path}.body[{i}]")
                     for i, b in enumerate(body_items))
        return Skip(body) if kind == "skip" else Residual(body)
    if kind not in _BLOCK_FIELDS:
        raise ArchSpecError(f"{path}: unknown block kind '{kind}'")
    p = _require_fields(kind, params, path)
    if kind == "dense":
        if p["out"] < 1:
            raise ArchSpecError(f"{path}: dense out must be >= 1")
        return Dense(p["out"], p["relu"])
    if kind == "conv":
        if p["out_channels"] < 1:
            raise ArchSpecError(f"{path}: out_channels must be >= 1")
        if p["kernel"] < 1 or p["kernel"] % 2 == 0:
            raise ArchSpecError(f"{path}: kernel must be odd and positive")
        if p["stride"] < 1:
            raise ArchSpecError(f"{path}: stride must be >= 1")
        if p["padding"] < 0:
            raise ArchSpecError(f"{path}: padding must be >= 0")
        return Conv(p["out_channels"], p["kernel"], p["stride"],
                    p["padding"], p["relu"])
    if kind == "avgpool":
        if p["factor"] < 2:
            raise ArchSpecError(f"{path}: pooling factor must be >= 2")
        return AvgPool(p["factor"])
    if kind == "unpool":
        if p["factor"] < 2:
            raise ArchSpecError(f"{path}: unpooling factor must be >= 2")
        return Unpool(p["factor"])
    # maxpool
    if p["window"] < 2:
        raise ArchSpecError(f"{path}: degenerate maxout (window must be >= 2)")
    return MaxPool(p["window"])


def _is_positive_int(v) -> bool:
    # bool is an int subclass, but JSON true/false is not a count
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def parse(text: str | dict) -> NetworkSpec:
    """Parse and validate an architecture document (JSON text or dict)."""
    if isinstance(text, str):
        try:
            doc = json.loads(text)
        except ValueError as exc:  # also integers past Python's digit limit
            raise ArchSpecError(f"malformed JSON: {exc}") from None
        except RecursionError:
            raise ArchSpecError("document is nested too deeply") from None
    else:
        doc = text
    if not isinstance(doc, dict):
        raise ArchSpecError("document must be a JSON object")
    unknown = set(doc) - {"input", "blocks"}
    if unknown:
        raise ArchSpecError(f"unknown top-level key(s) {sorted(unknown)}")
    if "input" not in doc or "blocks" not in doc:
        raise ArchSpecError("document needs 'input' and 'blocks'")
    inp = doc["input"]
    if isinstance(inp, dict) and set(inp) == {"nodes"}:
        nodes = inp["nodes"]
        if not _is_positive_int(nodes):
            raise ArchSpecError("input.nodes must be a positive integer")
        shape: int | tuple[int, int, int] = nodes
    elif isinstance(inp, dict) and set(inp) == {"channels", "height", "width"}:
        c, h, w = inp["channels"], inp["height"], inp["width"]
        for name, v in (("channels", c), ("height", h), ("width", w)):
            if not _is_positive_int(v):
                raise ArchSpecError(f"input.{name} must be a positive integer")
        shape = (c, h, w)
    else:
        raise ArchSpecError(
            "input must be {'nodes': int} or {'channels','height','width'}")
    if not isinstance(doc["blocks"], list) or not doc["blocks"]:
        raise ArchSpecError("blocks must be a non-empty list")
    blocks = tuple(_parse_block(b, f"blocks[{i}]")
                   for i, b in enumerate(doc["blocks"]))
    return NetworkSpec(shape, blocks)


def render(spec: NetworkSpec) -> dict:
    """Inverse of parse (on valid documents).  A block's class name, lower
    case, is its JSON kind and its fields are the JSON fields."""
    def block_doc(b: Block) -> dict:
        params = {f.name: getattr(b, f.name) for f in fields(b)}
        if isinstance(b, (Skip, Residual)):
            params["body"] = [block_doc(x) for x in b.body]
        return {type(b).__name__.lower(): params}

    if isinstance(spec.input_shape, int):
        inp: dict = {"nodes": spec.input_shape}
    else:
        c, h, w = spec.input_shape
        inp = {"channels": c, "height": h, "width": w}
    return {"input": inp, "blocks": [block_doc(b) for b in spec.blocks]}


# -- resolution ------------------------------------------------------------------

def _nodes(shape) -> int:
    if isinstance(shape, int):
        return shape
    c, h, w = shape
    return c * h * w


def _resolve_blocks(blocks, shape, path: str):
    stages: list[ResolvedStage] = []
    for i, b in enumerate(blocks):
        here = f"{path}[{i}]"
        n_in = _nodes(shape)
        if isinstance(b, Dense):
            stages.append(ResolvedStage("dense", n_in, b.out, relu=b.relu,
                                        label=f"dense {n_in}->{b.out}"))
            shape = b.out
        elif isinstance(b, Conv):
            if isinstance(shape, int):
                raise ArchSpecError(
                    f"{here}: conv needs a (channels,height,width) input")
            c, h, w = shape
            if (h + 2 * b.padding - b.kernel) < 0 or \
               (w + 2 * b.padding - b.kernel) < 0:
                raise ArchSpecError(f"{here}: kernel larger than padded input")
            h2 = (h + 2 * b.padding - b.kernel) // b.stride + 1
            w2 = (w + 2 * b.padding - b.kernel) // b.stride + 1
            n_out = b.out_channels * h2 * w2
            stages.append(ResolvedStage(
                "dense", n_in, n_out, relu=b.relu,
                label=f"conv {c}x{h}x{w}->{b.out_channels}x{h2}x{w2}"))
            shape = (b.out_channels, h2, w2)
        elif isinstance(b, (AvgPool, MaxPool)):
            is_max = isinstance(b, MaxPool)
            name, size, f = (("maxpool", "window", b.window) if is_max
                             else ("avgpool", "factor", b.factor))
            if isinstance(shape, int):
                raise ArchSpecError(f"{here}: {name} needs a spatial input")
            c, h, w = shape
            if h % f or w % f:
                raise ArchSpecError(
                    f"{here}: spatial size {h}x{w} not divisible by "
                    f"{size} {f}")
            shape = (c, h // f, w // f)
            n_out = _nodes(shape)
            stages.append(ResolvedStage(
                "maxpool" if is_max else "dense", n_in, n_out,
                k=f * f if is_max else 0, label=f"{name} {n_in}->{n_out}"))
        elif isinstance(b, Unpool):
            if isinstance(shape, int):
                raise ArchSpecError(f"{here}: unpool needs a spatial input")
            c, h, w = shape
            shape = (c, h * b.factor, w * b.factor)
            n_out = _nodes(shape)
            stages.append(ResolvedStage("dense", n_in, n_out,
                                        label=f"unpool {n_in}->{n_out}"))
        else:  # Skip / Residual
            kind = "skip" if isinstance(b, Skip) else "residual"
            body, body_shape = _resolve_blocks(b.body, shape, f"{here}.body")
            body_out = _nodes(body_shape)
            if kind == "residual":
                if body_out != n_in:
                    raise ArchSpecError(
                        f"{here}: residual body maps {n_in} -> {body_out} "
                        f"nodes; must preserve the dimension")
                stages.append(ResolvedStage("residual", n_in, n_in,
                                            body=tuple(body),
                                            label=f"residual @{n_in}"))
                # shape unchanged
            else:
                n_out = n_in + body_out
                stages.append(ResolvedStage("skip", n_in, n_out,
                                            body=tuple(body),
                                            label=f"skip {n_in}+{body_out}"))
                if (not isinstance(shape, int)
                        and not isinstance(body_shape, int)
                        and shape[1:] == body_shape[1:]):
                    shape = (shape[0] + body_shape[0], *shape[1:])
                else:
                    shape = n_out
    return stages, shape


def resolve(spec: NetworkSpec) -> tuple[ResolvedStage, ...]:
    """Lower the block tree into a concrete stage sequence."""
    stages, _ = _resolve_blocks(spec.blocks, spec.input_shape, "blocks")
    return tuple(stages)


def strip_wrappers(spec: NetworkSpec) -> NetworkSpec:
    """Remove skip/residual wrappers, inlining their bodies."""
    def strip(blocks):
        out = []
        for b in blocks:
            if isinstance(b, (Skip, Residual)):
                out.extend(strip(b.body))
            else:
                out.append(b)
        return tuple(out)

    return NetworkSpec(spec.input_shape, strip(spec.blocks))


# -- builtins --------------------------------------------------------------------

def mlp(n0: int, ni: int, k: int) -> NetworkSpec:
    """n0-ni-...-ni-1 with k ReLU hidden layers and a linear output."""
    if n0 < 1 or ni < 1 or k < 0:
        raise ArchSpecError("mlp sizes must be positive")
    blocks = tuple(Dense(ni, True) for _ in range(k)) + (Dense(1, False),)
    return NetworkSpec(n0, blocks)


def _conv(out_c: int, relu: bool = True) -> Conv:
    return Conv(out_c, kernel=3, stride=1, padding=1, relu=relu)


def unet_small() -> NetworkSpec:
    """Three-level encoder/decoder on an 8x8 input with skip connections."""
    inner = Skip(body=(AvgPool(2), _conv(8), _conv(4), Unpool(2)))
    outer = Skip(body=(AvgPool(2), _conv(4), inner, _conv(2), Unpool(2)))
    blocks = (_conv(2), outer, _conv(2), Dense(1, False))
    return NetworkSpec((1, 8, 8), blocks)


def ae_small() -> NetworkSpec:
    """unet_small with the skip connections removed."""
    return strip_wrappers(unet_small())


def resnet_small() -> NetworkSpec:
    """Small classification net with two residual blocks on an 8x8 input."""
    blocks = (
        _conv(2), AvgPool(2), _conv(4),
        Residual(body=(_conv(4),)),
        Residual(body=(_conv(4),)),
        Dense(8, True), Dense(1, False),
    )
    return NetworkSpec((1, 8, 8), blocks)


_BUILTINS = {
    "unet_small": unet_small,
    "ae_small": ae_small,
    "resnet_small": resnet_small,
}


def builtin(name: str) -> NetworkSpec:
    """Look up a named builtin."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ArchSpecError(f"unknown builtin '{name}'") from None
    return factory()
