"""Support-constrained linearized Reed-Solomon codes over the sum-rank metric,
plus the distributed multi-source network designer built on top of them.

The names of `__all__` load their module on first access (PEP 562), so
`import lrsnet` loads no numpy and `lrsnet check`, which decides the
zero-pattern condition in pure Python, never does.  Each access looks the
name up in its module again: the package caches nothing, so a function
swapped in its module (a tracer, a test double) is the one it hands out.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "constraints": ("SupportConstraint", "check_condition", "cover_dimension",
                    "suggest_field_params"),
    "construct": ("ConstrainedCode", "subcode_generator", "synthesize"),
    "gf": ("FieldTower", "make_field"),
    "lrs": ("LrsCode", "make_code"),
    "netsim": ("DesignResult", "NetworkInstance", "build_distributed_code",
               "design_lengths"),
    "skewpoly": ("SkewPoly", "minimal_polynomial"),
    "sumrank": ("OrderedPartition", "bruteforce_decode", "min_distance_bruteforce",
                "sum_rank_weight"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "__version__"])


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
