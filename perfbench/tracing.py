"""Span tracing of the public qperm functions, installed from outside the package.

`Tracer.install` replaces each public function of the traced modules with a
wrapper in every qperm module namespace that holds it.  Modules bind names
such as `leq` and `nested_eval` with `from .x import y`, so patching only the
defining module would miss the calls that cross layers.  The hot partition
predicates get a call counter instead of a span, which keeps the tracing
overhead low.  Spans (name, start, end, parent) are kept in flat arrays and
written out once, when the run ends.

Only public names are looked up, and a name that a later version of the
package drops simply yields zero, so the tracer keeps working across
refactors of the package internals.
"""

import re
import sys
import time
from array import array

import numpy as np

LAYERS = ("partitions", "weingarten", "cumulants", "exchange", "acceptance", "cli")

# Predicates called millions of times per run: counted, never spanned.
COUNTED = ("leq", "join", "kernel", "is_noncrossing", "up_down_interval")

# Calls whose (k, n) arguments name a Weingarten table the process must hold.
TABLE_FUNCTIONS = ("gram", "weingarten", "check_inverse")

CRITERION = re.compile(r"acceptance\.criterion_(\d+)_")

N_CRITERIA = 13


def _catalan(k):
    c = 1
    for i in range(k):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def _lru_caches(module):
    seen = set()
    for obj in vars(module).values():
        if callable(getattr(obj, "cache_info", None)) and id(obj) not in seen:
            seen.add(id(obj))
            yield obj


class Tracer:
    """Records one span per call into a public qperm function."""

    def __init__(self):
        self.names = []
        self.layer_of = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = {}
        self.tables = set()
        self.caches = {layer: [] for layer in LAYERS}
        self._patched = []

    def _span_wrapper(self, fn, name_id, record_table):
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, tables = self.stack, self.tables
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            if record_table and len(args) >= 2:
                tables.add((args[0], args[1]))
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn, key):
        self.counts[key] = cell = [0]

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def operation(self, call):
        """`call` wrapped in a root span named "op", so that the spans of one
        benchmark operation share an ancestor; it counts in no layer."""
        if "benchmark.op" not in self.names:
            self.names.append("benchmark.op")
            self.layer_of.append("benchmark")
        return self._span_wrapper(call, self.names.index("benchmark.op"), False)

    def install(self):
        """Wrap every public function of the traced layers, in every namespace."""
        import qperm

        modules = [qperm] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith("qperm.")
        ]
        replacement = {}
        for layer in LAYERS:
            module = sys.modules.get(f"qperm.{layer}")
            if module is None:
                continue
            self.caches[layer] = list(_lru_caches(module))
            for name, fn in _public_functions(module):
                if layer == "partitions" and name in COUNTED:
                    wrapper = self._count_wrapper(fn, name)
                else:
                    self.names.append(f"{layer}.{name}")
                    self.layer_of.append(layer)
                    wrapper = self._span_wrapper(
                        fn, len(self.names) - 1, layer == "weingarten" and name in TABLE_FUNCTIONS
                    )
                replacement[id(fn)] = (fn, wrapper)
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = replacement.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
                    self._patched.append((module, name, obj))

    def uninstall(self):
        for module, name, obj in reversed(self._patched):
            setattr(module, name, obj)
        self._patched.clear()

    def write(self, path):
        """Write the raw spans and the name table to one .npz file."""
        np.savez(
            path,
            names=np.array(self.names, dtype=object).astype(str),
            layers=np.array(self.layer_of, dtype=object).astype(str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    def layer_metrics(self, cli_output_bytes):
        """Per-layer metrics: self time (span minus child spans), counts, caches.

        Returns (metrics, names of the cache ratios that had no lookups)."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64
        )
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        width = len(self.names)
        self_by_name = np.bincount(name, weights=dur - child, minlength=width)
        total_by_name = np.bincount(name, weights=dur, minlength=width)
        calls_by_name = np.bincount(name, minlength=width)
        ids = {n: i for i, n in enumerate(self.names)}

        def self_s(*fns):
            """Self time of the named functions, given as "layer.function"."""
            return float(sum(self_by_name[ids[f]] for f in fns if f in ids))

        def calls(fn):
            return int(calls_by_name[ids[fn]]) if fn in ids else 0

        def counted(fn):
            return self.counts[fn][0] if fn in self.counts else 0

        undefined = []

        def hit_ratio(layer):
            hits = misses = 0
            for cache in self.caches[layer]:
                info = cache.cache_info()
                hits += info.hits
                misses += info.misses
            if not hits + misses:
                undefined.append(f"{layer}.cache_hit_ratio")
                return 0.0
            return hits / (hits + misses)

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(
                sum(self_by_name[i] for i, l in enumerate(self.layer_of) if l == layer)
            )
        part_spans = sum(
            int(calls_by_name[i]) for i, l in enumerate(self.layer_of) if l == "partitions"
        )
        out.update(
            {
                "partitions.calls": part_spans + sum(c[0] for c in self.counts.values()),
                "partitions.leq_calls": counted("leq"),
                "partitions.join_calls": counted("join"),
                "partitions.enumerate_s": self_s(
                    "partitions.enumerate_nc", "partitions.enumerate_partitions"
                ),
                "partitions.mobius_nc_calls": calls("partitions.mobius_nc"),
                "partitions.mobius_nc_s": self_s("partitions.mobius_nc"),
                "partitions.cache_hit_ratio": hit_ratio("partitions"),
                "weingarten.gram_s": self_s("weingarten.gram"),
                "weingarten.table_s": self_s("weingarten.weingarten"),
                "weingarten.check_inverse_s": self_s("weingarten.check_inverse"),
                "weingarten.tables_built": len(self.tables),
                "weingarten.table_entries": sum(_catalan(k) ** 2 for k, _ in self.tables),
                "weingarten.haar_moment_calls": calls("weingarten.haar_moment"),
                "weingarten.haar_moment_s": self_s("weingarten.haar_moment"),
                "weingarten.dk_value_calls": calls("weingarten.dk_value"),
                "weingarten.dk_value_s": self_s("weingarten.dk_value"),
                "weingarten.asymptotics_s": self_s("weingarten.weingarten_asymptotics"),
                "weingarten.cache_hit_ratio": hit_ratio("weingarten"),
                "cumulants.nested_eval_calls": calls("cumulants.nested_eval"),
                "cumulants.nested_eval_s": self_s("cumulants.nested_eval"),
                "cumulants.cumulants_to_moments_s": self_s("cumulants.cumulants_to_moments"),
                "cumulants.moments_to_cumulants_s": self_s("cumulants.moments_to_cumulants"),
                "cumulants.free_iid_moment_s": self_s("cumulants.free_iid_moment"),
                "cumulants.freeness_check_s": self_s("cumulants.freeness_check"),
                "exchange.urn_moment_quantum_calls": calls("exchange.urn_moment_quantum"),
                "exchange.urn_moment_quantum_s": self_s("exchange.urn_moment_quantum"),
                "exchange.urn_moment_classical_s": self_s("exchange.urn_moment_classical"),
                "exchange.definetti_gap_s": self_s("exchange.definetti_gap"),
                "exchange.invariance_check_s": self_s("exchange.invariance_check"),
                "exchange.block_sum_identity_s": self_s("exchange.block_sum_identity"),
                "exchange.cache_hit_ratio": hit_ratio("exchange"),
                "cli.output_bytes": cli_output_bytes,
            }
        )
        # A criterion's figure is its whole span, children included, so that
        # a faster layer below it shows up in the criterion that calls it.
        criterion_s = [0.0] * N_CRITERIA
        for i, fn in enumerate(self.names):
            match = CRITERION.match(fn)
            if match and 1 <= int(match.group(1)) <= N_CRITERIA:
                criterion_s[int(match.group(1)) - 1] += float(total_by_name[i])
        for number, seconds in enumerate(criterion_s, start=1):
            out[f"acceptance.criterion_{number:02d}_s"] = seconds
        out["trace.spans"] = len(dur)
        return out, undefined
