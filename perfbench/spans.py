"""Per-layer spans and counts for the traced run.

``Tracer.install`` rebinds every public function of every ``qcfun`` module in
each ``qcfun`` namespace that holds it.  The modules import one another with
``from .x import f``, so rebinding only the defining module would miss most
calls; rebinding every namespace turns nested calls such as
``phi_K -> mu_inv -> mu -> agm`` into parent and child spans.  A span's self
time is its duration minus the time of its child spans, and a layer's self
time is the sum over the spans of its functions.

Spans are folded into per-function totals as they end: a run makes millions
of microsecond calls, so keeping every span would cost more memory and time
than the work it describes.  Standard library only, so the cli shim can load
it before ``qcfun``.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
import types

LAYERS = ("specfun", "means", "modulus", "distortion", "bounds", "identities", "geometry", "cli")
PARENTS = ("mu_inv", "mu_a_inv", "run_suite")  # calls nested in these are counted by name
HYP = ("gauss_F", "gauss_F_near_one")
MEMORY = ("ahlfors_constant", "box_dimension")  # spans whose tracemalloc peak is recorded


class Tracer:
    def __init__(self):
        self.calls = {}    # "layer.name" -> [calls, self seconds, total seconds]
        self.nested = {}   # "parent>child" -> calls of child inside a parent span
        self.counts = {"hyp_evals": 0, "hyp_near_one": 0, "hyp_in_mu_a_inv": 0}
        self.peak_bytes = {}
        self._active = dict.fromkeys(PARENTS + HYP, 0)
        self._stack = []   # child-time accumulators of the open spans

    def reset(self):
        """Forget what set-up recorded; the wrappers stay installed."""
        for rec in self.calls.values():
            rec[:] = [0, 0.0, 0.0]
        self.nested.clear()
        self.counts.update(dict.fromkeys(self.counts, 0))
        self.peak_bytes.clear()

    def install(self):
        """Rebind the public functions of every loaded ``qcfun`` module."""
        modules = [m for name, m in sys.modules.items() if name == "qcfun" or name.startswith("qcfun.")]
        wrapped = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__.split(".")[-1] in LAYERS):
                    if value not in wrapped:
                        wrapped[value] = self._wrap(value)
                    setattr(mod, attr, wrapped[value])
        return len(wrapped)

    def _wrap(self, fn):
        name = fn.__name__
        rec = self.calls.setdefault(f"{fn.__module__.split('.')[-1]}.{name}", [0, 0.0, 0.0])
        stack, active, nested, counts = self._stack, self._active, self.nested, self.counts
        parents = [(p, f"{p}>{name}") for p in PARENTS]
        is_parent, is_hyp, is_memory = name in active, name in HYP, name in MEMORY
        perf = time.perf_counter

        def span(*args, **kwargs):
            for p, key in parents:
                if active[p]:
                    nested[key] = nested.get(key, 0) + 1
            if is_hyp:
                if name == "gauss_F_near_one":
                    counts["hyp_near_one"] += 1
                if not (active["gauss_F"] or active["gauss_F_near_one"]):
                    counts["hyp_evals"] += 1
                    if active["mu_a_inv"]:
                        counts["hyp_in_mu_a_inv"] += 1
            if is_parent:
                active[name] += 1
            if is_memory:
                started = not tracemalloc.is_tracing()
                if started:
                    tracemalloc.start()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                rec[0] += 1
                rec[1] += dt - child
                rec[2] += dt
                if stack:
                    stack[-1] += dt
                if is_parent:
                    active[name] -= 1
                if is_memory:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    if started:
                        tracemalloc.stop()
                    self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak)

        return span

    def snapshot(self):
        return {"calls": {k: list(v) for k, v in self.calls.items() if v[0]},
                "nested": dict(self.nested), "counts": dict(self.counts),
                "peak_bytes": dict(self.peak_bytes)}


def merge(snapshots):
    """Sum the snapshots of several processes (peaks take the maximum)."""
    total = {"calls": {}, "nested": {}, "counts": {}, "peak_bytes": {}}
    for snap in snapshots:
        for key, (n, self_s, total_s) in snap["calls"].items():
            rec = total["calls"].setdefault(key, [0, 0.0, 0.0])
            rec[0] += n
            rec[1] += self_s
            rec[2] += total_s
        for part in ("nested", "counts"):
            for key, n in snap[part].items():
                total[part][key] = total[part].get(key, 0) + n
        for key, n in snap["peak_bytes"].items():
            total["peak_bytes"][key] = max(total["peak_bytes"].get(key, 0), n)
    return total


def layer_metrics(snap, ops):
    """The per-layer metrics of BENCHMARK.json from one (merged) snapshot.

    ``ops`` is the number of workload operations the snapshot covers.  A
    ratio whose base never occurred (no mu_inv call on a workload without
    one) reads 0.
    """
    calls, nested, counts = snap["calls"], snap["nested"], snap["counts"]

    def n_calls(key):
        return calls.get(key, [0])[0]

    def ratio(num, den):
        return num / den if den else 0.0

    def layer_self_us(layer):
        return 1e6 * sum(rec[1] for key, rec in calls.items() if key.split(".")[0] == layer) / ops

    def mean_ms(key):
        rec = calls.get(key, [0, 0.0, 0.0])
        return ratio(1e3 * rec[2], rec[0])

    mu_inv, mu_a_inv, suites = n_calls("modulus.mu_inv"), n_calls("modulus.mu_a_inv"), n_calls("identities.run_suite")
    return {
        "means.agm_per_op": ratio(n_calls("means.agm"), ops),
        "means.self_us_per_op": layer_self_us("means"),
        "modulus.mu_evals_per_mu_inv": ratio(nested.get("mu_inv>mu", 0), mu_inv),
        "modulus.agm_per_mu_inv": ratio(nested.get("mu_inv>agm", 0), mu_inv),
        "modulus.self_us_per_op": layer_self_us("modulus"),
        "specfun.hyp_evals_per_op": ratio(counts.get("hyp_evals", 0), ops),
        "specfun.hyp_evals_per_mu_a_inv": ratio(counts.get("hyp_in_mu_a_inv", 0), mu_a_inv),
        "specfun.near_one_share": ratio(counts.get("hyp_near_one", 0), counts.get("hyp_evals", 0)),
        "specfun.self_us_per_op": layer_self_us("specfun"),
        "distortion.self_us_per_op": layer_self_us("distortion"),
        "bounds.self_us_per_op": layer_self_us("bounds"),
        "identities.run_suite_ms": mean_ms("identities.run_suite"),
        "identities.mu_a_calls_per_suite": ratio(nested.get("run_suite>mu_a", 0), suites),
        "geometry.ahlfors_ms": mean_ms("geometry.ahlfors_constant"),
        "geometry.ahlfors_peak_mb": snap["peak_bytes"].get("ahlfors_constant", 0) / 2 ** 20,
        "geometry.box_dimension_ms": mean_ms("geometry.box_dimension"),
        "geometry.box_dimension_peak_mb": snap["peak_bytes"].get("box_dimension", 0) / 2 ** 20,
    }
