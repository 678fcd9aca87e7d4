"""Exact upper bounds on the number of linear regions of ReLU networks."""

from .archspec import NetworkSpec, ResolvedStage, builtin, parse, resolve
from .engine import BoundReport, compare, evaluate, sweep
from .gamma import GammaProvider, GammaVariant, gamma_norm
from .oracle import (ConcreteNet, RegionCount, count_regions_1d,
                     pattern_lower_bound)

__all__ = [
    "BoundReport", "ConcreteNet", "GammaProvider", "GammaVariant",
    "NetworkSpec", "RegionCount", "ResolvedStage", "builtin", "compare",
    "count_regions_1d", "evaluate", "gamma_norm", "parse",
    "pattern_lower_bound", "resolve", "sweep",
]

__version__ = "0.1.0"
