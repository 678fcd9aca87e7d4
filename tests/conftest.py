import random
from fractions import Fraction

from regionbound import archspec, engine, oracle
from regionbound.gamma import GammaVariant, first_layer_gamma
from regionbound.histogram import Histogram


def serra_first_layer_gamma(n: int) -> Histogram:
    """Serra seed for one input dimension: (0,...,0,n,1)."""
    return Histogram((0,) * (n - 1) + (n, 1))


def columns_by_recursion(variant: GammaVariant, nmax: int):
    """Yield the columns (gamma(0,m), ..., gamma(m,m)) for m = 1..nmax.

    Reference for the closed forms: grows each column from the previous
    one by gamma(n,m) = gamma(n-1,m-1) + down_move(gamma(n,m-1)), keeping
    only two adjacent columns in memory.  The variant only selects the
    n=1 seed.
    """
    seed1 = (first_layer_gamma if variant is GammaVariant.OURS
             else serra_first_layer_gamma)
    col = (Histogram.unit(1), Histogram((1, 1)))
    yield col
    for m in range(2, nmax + 1):
        nxt = [Histogram.unit(m), seed1(m)]
        for n in range(2, m):
            nxt.append(col[n - 1] + col[n].down_move())
        # gamma(m, m-1) equals gamma(m-1, m-1) by the n > n' rule
        nxt.append(col[m - 1] + col[m - 1].down_move())
        col = tuple(nxt)
        yield col


def random_mlp_spec(rng: random.Random, max_n0=16, max_width=32, max_depth=6):
    n0 = rng.randint(1, max_n0)
    depth = rng.randint(1, max_depth)
    widths = [rng.randint(1, max_width) for _ in range(depth)]
    blocks = tuple(archspec.Dense(w, True) for w in widths)
    return archspec.NetworkSpec(n0, blocks + (archspec.Dense(1, False),))


def mlp_bound(n0, widths, variant="ours"):
    blocks = tuple(archspec.Dense(w, True) for w in widths)
    spec = archspec.NetworkSpec(n0, blocks + (archspec.Dense(1, False),))
    return engine.evaluate(archspec.resolve(spec), variant, n0).bound


def random_concrete_net(rng: random.Random, n0=1, max_width=8, max_depth=3):
    depth = rng.randint(1, max_depth)
    widths = [rng.randint(1, max_width) for _ in range(depth)]
    layers = []
    d = n0
    for w in widths:
        weights = tuple(
            tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 5))
                  for _ in range(d))
            for _ in range(w))
        bias = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 5))
                     for _ in range(w))
        layers.append(oracle.Layer(weights, bias, True))
        d = w
    # linear readout
    weights = tuple((tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 5))
                           for _ in range(d)),))
    layers.append(oracle.Layer(weights, (Fraction(0),), False))
    return oracle.ConcreteNet(n0, tuple(layers))
