"""Span tracer that wraps lrsnet's public functions from outside the package.

Each wrapped call records one span (function, start, end, parent span, op).
Spans stay in memory until the run ends; self time is a span's duration
minus the time of the spans it caused.  The scalar field operations
(FieldTower.mul, add, frobenius, pow, inv) are deliberately not wrapped:
they run 10^4..10^6 times per op, so wrapping them would time the tracer.
Their cost lands in the self time of whichever wrapped caller ran them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# layer (= lrsnet module) -> wrapped public functions, in report order
LAYERS = {
    "gf": ("FieldTower.__init__", "FieldTower.base_matrix_rank",
           "FieldTower.base_mat_mul", "FieldTower.numpy_tables",
           "mat_mul", "mat_det", "mat_rank", "vec_mat"),
    "skewpoly": ("minimal_polynomial", "skew_mul", "right_div", "evaluate"),
    "sumrank": ("min_distance_bruteforce", "bruteforce_decode", "sum_rank_weight_matrix"),
    "lrs": ("make_code", "generator_matrix", "locators"),
    "constraints": ("check_condition", "cover_dimension", "complete_zero_sets",
                    "derive_zero_sets", "parse_pattern"),
    "construct": ("synthesize", "subcode_generator", "row_transform", "verify_support"),
    "netsim": ("design_lengths", "build_distributed_code", "sample_channel",
               "audit_weights", "end_to_end_trial"),
    "cli": ("main",),
}

FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# (q^m)^k messages a brute-force enumeration may visit, and the largest k the
# subset scans accept; headroom is the share of each guard an argument uses
_BRUTE_FORCE_GUARD = 1 << 22
_SUBSET_SCAN_GUARD = 24

_COUNTERS = ("attempts", "codes", "channel_draws", "completion_candidates")
_MAXIMA = ("sumrank_headroom", "constraints_headroom")


class Tracer:
    """Records spans while installed; `install`/`uninstall` patch lrsnet."""

    def __init__(self):
        self._fid = {name: i for i, name in enumerate(FUNCTIONS)}
        self._patches = []          # (namespace, attribute, original)
        self._stack = []            # open span indices
        self._open = [0] * len(FUNCTIONS)
        self.op_id = 0
        # one entry per span, columns kept as flat arrays
        self.span_fid = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._child_ns = array("q")
        # running aggregates, read through snapshot()
        self.calls = [0] * len(FUNCTIONS)
        self.raised = [0] * len(FUNCTIONS)
        self.self_ns = [0] * len(FUNCTIONS)
        self.counters = dict.fromkeys(_COUNTERS, 0)
        self.maxima = dict.fromkeys(_MAXIMA, 0.0)

    # ------------------------------------------------------------------
    # patching

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        # import every layer first: a module imported mid-patching would
        # bind wrappers with `from .x import y` and keep them after uninstall
        modules = {layer: importlib.import_module(f"lrsnet.{layer}") for layer in LAYERS}
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "lrsnet" or name.startswith("lrsnet.")]
        for layer, fns in LAYERS.items():
            module = modules[layer]
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, attr = fn.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[attr]
                    self._patch(cls, attr, orig, self._wrap(name, orig))
                    continue
                orig = getattr(module, fn)
                wrapper = self._wrap(name, orig)
                # modules that did `from .x import fn` hold their own binding
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            self._patch(ns, attr, orig, wrapper)

    def _patch(self, ns, attr, orig, wrapper):
        setattr(ns, attr, wrapper)
        self._patches.append((ns, attr, orig))

    def uninstall(self):
        for ns, attr, orig in reversed(self._patches):
            setattr(ns, attr, orig)
        self._patches.clear()

    def _wrap(self, name, orig):
        fid = self._fid[name]
        note = _ARG_NOTES.get(name)
        enter, leave = self._enter, self._leave

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = enter(fid)
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                leave(idx, fid, True)
                raise
            leave(idx, fid, False)
            if note is not None:
                note(self, args, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # spans

    def _enter(self, fid):
        idx = len(self.span_fid)
        self.span_fid.append(fid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0)
        self._child_ns.append(0)
        self._stack.append(idx)
        self._open[fid] += 1
        if fid == _BASE_RANK and self._open[_SAMPLE_CHANNEL]:
            self.counters["channel_draws"] += 1
        elif fid == _CHECK_CONDITION and self._open[_COMPLETE]:
            self.counters["completion_candidates"] += 1
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _leave(self, idx, fid, raised):
        end = time.perf_counter_ns()
        self._stack.pop()
        self._open[fid] -= 1
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.self_ns[fid] += dur - self._child_ns[idx]
        self.calls[fid] += 1
        if raised:
            self.raised[fid] += 1
        parent = self.span_parent[idx]
        if parent >= 0:
            self._child_ns[parent] += dur

    def snapshot(self) -> dict:
        return {
            "calls": list(self.calls),
            "raised": list(self.raised),
            "self_ns": list(self.self_ns),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }

    def spans(self) -> dict:
        """All recorded spans as parallel columns (times in ns)."""
        return {
            "functions": list(FUNCTIONS),
            "fid": self.span_fid,
            "start_ns": self.span_start,
            "end_ns": self.span_end,
            "parent": self.span_parent,
            "op": self.span_op,
        }


_BASE_RANK = FUNCTIONS.index("gf.FieldTower.base_matrix_rank")
_SAMPLE_CHANNEL = FUNCTIONS.index("netsim.sample_channel")
_CHECK_CONDITION = FUNCTIONS.index("constraints.check_condition")
_COMPLETE = FUNCTIONS.index("constraints.complete_zero_sets")


def _note_synthesis(tracer, args, code):
    tracer.counters["attempts"] += code.attempts
    tracer.counters["codes"] += 1


def _note_enumeration(tracer, args, result):
    tower, G = args[0], args[1]
    share = tower.order ** len(G) / _BRUTE_FORCE_GUARD
    tracer.maxima["sumrank_headroom"] = max(tracer.maxima["sumrank_headroom"], share)


def _note_subset_scan(tracer, args, result):
    share = args[0].k / _SUBSET_SCAN_GUARD
    tracer.maxima["constraints_headroom"] = max(tracer.maxima["constraints_headroom"], share)


# post-call hooks that read the arguments or result of one function; every
# code comes out of synthesize, so counting there counts each code once
_ARG_NOTES = {
    "construct.synthesize": _note_synthesis,
    "sumrank.min_distance_bruteforce": _note_enumeration,
    "sumrank.bruteforce_decode": _note_enumeration,
    "constraints.check_condition": _note_subset_scan,
    "constraints.cover_dimension": _note_subset_scan,
    "constraints.complete_zero_sets": _note_subset_scan,
}


def layer_metrics(per_pass: dict, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metric values for one pass of the op mix."""
    out = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, name in enumerate(FUNCTIONS):
        self_s = per_pass["self_ns"][i] / 1e9
        layer_self[name.split(".", 1)[0]] += self_s
        out[f"{name}.calls"] = (per_pass["calls"][i], "count")
        out[f"{name}.self_s"] = (self_s, "s")
        out[f"{name}.raised"] = (per_pass["raised"][i], "count")
    for layer, self_s in layer_self.items():
        out[f"{layer}.self_s"] = (self_s, "s")
    c = per_pass["counters"]
    samples = per_pass["calls"][_SAMPLE_CHANNEL]
    out["construct.attempts"] = (c["attempts"], "count")
    out["construct.codes_per_attempt"] = (
        c["codes"] / c["attempts"] if c["attempts"] else 0.0, "ratio")
    out["netsim.channel_redraws"] = (c["channel_draws"] - samples, "count")
    out["netsim.channel_accept_ratio"] = (
        samples / c["channel_draws"] if c["channel_draws"] else 0.0, "ratio")
    out["constraints.completion_candidates"] = (c["completion_candidates"], "count")
    out["sumrank.guard_headroom_max"] = (per_pass["maxima"]["sumrank_headroom"], "ratio")
    out["constraints.guard_headroom_max"] = (
        per_pass["maxima"]["constraints_headroom"], "ratio")
    out["trace.overhead_frac"] = (traced_wall_s / untraced_wall_s - 1.0, "ratio")
    out["trace.coverage"] = (sum(layer_self.values()) / traced_wall_s, "ratio")
    return out

