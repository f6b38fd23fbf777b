"""Span tracer that instruments covertower from outside its source files.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper under every name that a covertower module imported
it as, so calls between layers pass through the wrapper.  No file under ``src/`` is touched.

Spans carry an id, a parent id, an operation id, a name, a start and an
end.  They stay in memory, in compact arrays, until ``dump`` writes them
out when the process ends.  ``summarize`` merges the span files of all
processes of one traced run and derives per-layer calls, self times
(duration minus the children's durations) and work counters.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import statistics
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

LAYERS = (
    "words",
    "cosets",
    "enumerate",
    "chartower",
    "vaut",
    "genus_one",
    "ledger",
    "io",
    "cli",
)

# Spans that open a traced command or workload operation; their self time
# belongs to the benchmark, not to a layer.
BENCH = "bench"

# Loads whose outermost span counts towards io.load_s.
_LOAD_NAMES = ("io.load_doc",) + tuple(
    f"io.{n}"
    for n in (
        "subgroup_from_doc",
        "char_subgroup_from_doc",
        "tower_from_doc",
        "vaut_from_doc",
        "cycle_from_doc",
    )
)
# Spans whose kernel_subgroup children not followed by an intersect were
# skipped as redundant.
_CORE_LOOPS = (
    "chartower.char_core",
    "chartower.char_core_within",
    "chartower.verify_certificate",
)


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    """In-memory span store for one process."""

    def __init__(self, base: int, op: int = 0, parent: int = -1):
        # Span ids are ``base | n``; every process of a run gets its own base.
        self.base = base << 32
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [parent]
        self.op = op
        self._ops = op
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def new_op(self) -> int:
        self._ops += 1
        return self._ops

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _open(self, name_id: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1])
        self.span_op.append(self.op)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.stack.append(self.base | sid)
        return sid

    @contextmanager
    def span(self, name: str, op: int | None = None):
        """Record a span around benchmark code; a new ``op`` starts an operation."""
        saved = self.op
        if op is not None:
            self.op = op
        sid = self._open(self._name_id(name))
        self.span_start[sid] = time.perf_counter()
        try:
            yield self.base | sid
        finally:
            self.span_end[sid] = time.perf_counter()
            self.stack.pop()
            self.op = saved

    def _wrap(self, qualified: str, fn):
        name_id = self._name_id(qualified)
        hook = _HOOKS.get(qualified)
        tracer = self
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = hook.before(fn, args) if hook else None
            if state is not None:
                args, state = state
            sid = tracer._open(name_id)
            starts[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if inspect.isgenerator(result):
                result = tracer._traced_generator(name_id, result, hook)
            elif hook:
                hook.after(tracer, args, result, state, ends[sid] - starts[sid])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualified)
        return traced

    def _traced_generator(self, name_id: int, gen, hook):
        # A lazy result does its work in next(); time each step as a span
        # of the producing function so the layer keeps its self time.
        while True:
            sid = self._open(name_id)
            self.span_start[sid] = time.perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.span_end[sid] = time.perf_counter()
                self.stack.pop()
            if hook:
                hook.item(self)
            yield item

    def install(self) -> None:
        """Wrap the layers' public functions and rebind them in their callers."""
        replacement = {}
        for layer in LAYERS:
            module = importlib.import_module(f"covertower.{layer}")
            for name, fn in _public_functions(module):
                replacement[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        callers = [
            m
            for n, m in list(sys.modules.items())
            if n == "covertower" or n.startswith("covertower.")
        ]
        for module in callers:
            for attr, value in list(vars(module).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self, path: Path) -> None:
        """Write the spans (binary arrays) and a JSON header next to them."""
        header = {
            "base": self.base,
            "names": self.names,
            "spans": len(self.span_name),
            "counts": self.counts,
            "samples": self.samples,
        }
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (
                self.span_name,
                self.span_parent,
                self.span_op,
                self.span_start,
                self.span_end,
            ):
                arr.tofile(fh)
        path.with_suffix(".json").write_text(json.dumps(header))


# ---------------------------------------------------------------------------
# Work counters computed from call arguments and results.


class _Hook:
    def before(self, fn, args):
        """Return ``(args, state)`` to replace the arguments, or None."""
        return None

    def after(self, tracer, args, result, state, duration):
        pass

    def item(self, tracer):
        """One item of a lazily produced result."""


class _Dehn(_Hook):
    def before(self, fn, args):
        if len(args) < 2:
            return None
        pres, w = args[0], args[1]
        if not isinstance(w, (tuple, list)):
            w = tuple(w)
        return (pres, w) + tuple(args[2:]), len(w)

    def after(self, tracer, args, result, letters, duration):
        tracer.add("words.dehn_letters", letters)


class _Tables(_Hook):
    """Coset-table constructors: BFS states and cells of new tables."""

    def after(self, tracer, args, result, state, duration):
        if not hasattr(result, "table") or any(result is a for a in args):
            return
        n = len(result.table)
        tracer.add("cosets.bfs_states", n)
        tracer.add("cosets.cells_built", n * result.pres.generator_count)


class _Canonicalize(_Tables):
    def after(self, tracer, args, result, state, duration):
        super().after(tracer, args, result, state, duration)
        sub = args[0]
        if result is not sub and sub.basepoint == 0 and result.table == sub.table:
            tracer.add("cosets.canonicalize_noops", 1)


class _Schreier(_Hook):
    """Cached: only a cache miss walks the spanning tree."""

    def before(self, fn, args):
        return args, (fn, fn.cache_info().misses)

    def after(self, tracer, args, result, state, duration):
        fn, misses = state
        if fn.cache_info().misses > misses:
            tracer.add("cosets.bfs_states", len(args[0].table))


class _Enumerate(_Hook):
    def after(self, tracer, args, result, state, duration):
        tracer.add("enumerate.subgroups", len(result))

    def item(self, tracer):
        tracer.add("enumerate.subgroups", 1)


class _Homs(_Hook):
    def after(self, tracer, args, result, state, duration):
        tracer.add("chartower.homs", len(result))


class _Tower(_Hook):
    def after(self, tracer, args, result, state, duration):
        unknown = sum(1 for e in result.edges if e.char_tag == "unknown")
        tracer.add("chartower.tags_unknown", unknown)


class _Preimage(_Hook):
    def after(self, tracer, args, result, state, duration):
        v, s = args[0], args[1]
        letters = sum(len(w) for w in v.images)
        tracer.add("vaut.preimage_letter_steps", letters * len(s.table))


class _Validate(_Hook):
    def after(self, tracer, args, result, state, duration):
        tracer.add("vaut.validations", 1)


class _Ledger(_Hook):
    def after(self, tracer, args, result, state, duration):
        failed = sum(1 for c in result["checks"] if not c["pass"])
        tracer.add("ledger.checks_failed", failed)


class _Store(_Hook):
    def before(self, fn, args):
        return args, time.process_time()

    def after(self, tracer, args, result, cpu_start, duration):
        cpu = time.process_time() - cpu_start
        tracer.add("io.docs_written", 1)
        tracer.add("io.doc_bytes_written", os.path.getsize(result))
        index = Path(args[0]) / "index.json"
        if index.exists():
            tracer.add("io.index_bytes_rewritten", os.path.getsize(index))
        tracer.add("io.store_wait_s", max(0.0, duration - cpu))
        tracer.samples.setdefault("io.store_ms", []).append(duration * 1e3)


class _Load(_Hook):
    def after(self, tracer, args, result, state, duration):
        tracer.add("io.docs_loaded", 1)


_TABLE_BUILDERS = (
    "full_subgroup",
    "make_subgroup",
    "intersect",
    "conjugate_subgroup",
    "restrict_to_cover",
    "flatten_cover_subgroup",
    "twisted_subgroup",
)
_HOOKS = {
    "words.dehn_reduce": _Dehn(),
    "cosets.canonicalize": _Canonicalize(),
    "cosets.schreier_system": _Schreier(),
    "enumerate.low_index_subgroups": _Enumerate(),
    "chartower.hom_enumeration": _Homs(),
    "chartower.build_char_tower": _Tower(),
    "vaut.preimage_subgroup": _Preimage(),
    "vaut.validate_vaut": _Validate(),
    "ledger.ledger_report": _Ledger(),
    "io.store_doc": _Store(),
    "io.load_doc": _Load(),
}
_HOOKS.update({f"cosets.{n}": _Tables() for n in _TABLE_BUILDERS})


# ---------------------------------------------------------------------------
# Merging span files.


def _read(path: Path):
    header = json.loads(path.with_suffix(".json").read_text())
    base = header["base"]
    n = header["spans"]
    cols = [array(t) for t in ("H", "q", "q", "d", "d")]
    with open(path.with_suffix(".bin"), "rb") as fh:
        for col in cols:
            col.fromfile(fh, n)
    return header, base, cols


def summarize(span_paths, trace_wall: float) -> dict:
    """Per-layer metrics from the span files of one traced run."""
    names: list[str] = []
    parent: list[int] = []
    start: list[float] = []
    end: list[float] = []
    index_of: dict[int, int] = {}
    counts: dict[str, float] = {}
    store_ms: list[float] = []
    for path in span_paths:
        header, base, (nm, par, _op, st, en) = _read(path)
        for key, value in header["counts"].items():
            counts[key] = counts.get(key, 0) + value
        store_ms.extend(header["samples"].get("io.store_ms", []))
        local = header["names"]
        for i in range(len(nm)):
            index_of[base | i] = len(names)
            names.append(local[nm[i]])
            parent.append(par[i])
            start.append(st[i])
            end.append(en[i])

    n = len(names)
    parent_index = [index_of.get(p, -1) for p in parent]
    child_time = [0.0] * n
    for i in range(n):
        p = parent_index[i]
        if p >= 0:
            child_time[p] += end[i] - start[i]

    layer_calls = {layer: 0 for layer in LAYERS + (BENCH,)}
    layer_self = {layer: 0.0 for layer in LAYERS + (BENCH,)}
    enumerate_time = 0.0
    load_time = 0.0
    kernels = {}
    intersects = {}
    for i in range(n):
        name = names[i]
        layer = name.split(".", 1)[0]
        layer_calls[layer] += 1
        layer_self[layer] += (end[i] - start[i]) - child_time[i]
        p = parent_index[i]
        pname = names[p] if p >= 0 else ""
        if layer == "enumerate" and not pname.startswith("enumerate."):
            enumerate_time += end[i] - start[i]
        if name in _LOAD_NAMES and pname not in _LOAD_NAMES:
            load_time += end[i] - start[i]
        if pname in _CORE_LOOPS:
            if name == "chartower.kernel_subgroup":
                kernels[p] = kernels.get(p, 0) + 1
            elif name == "cosets.intersect":
                intersects[p] = intersects.get(p, 0) + 1

    built = sum(kernels.values())
    used = sum(min(intersects.get(p, 0), k) for p, k in kernels.items())
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (layer_calls[layer], "count")
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
    out["bench.self_s"] = (layer_self[BENCH], "s")
    canon = sum(1 for x in names if x == "cosets.canonicalize")
    subgroups = counts.get("enumerate.subgroups", 0)
    out.update(
        {
            "words.dehn_letters": (counts.get("words.dehn_letters", 0), "count"),
            "cosets.bfs_states": (counts.get("cosets.bfs_states", 0), "count"),
            "cosets.cells_built": (counts.get("cosets.cells_built", 0), "count"),
            "cosets.canonicalize_noop_ratio": (
                counts.get("cosets.canonicalize_noops", 0) / canon if canon else 0.0,
                "ratio",
            ),
            "enumerate.subgroups": (subgroups, "count"),
            "enumerate.subgroups_per_s": (
                subgroups / enumerate_time if enumerate_time else 0.0,
                "1/s",
            ),
            "chartower.homs": (counts.get("chartower.homs", 0), "count"),
            "chartower.kernel_skip_ratio": (
                (built - used) / built if built else 0.0,
                "ratio",
            ),
            "chartower.tags_unknown": (counts.get("chartower.tags_unknown", 0), "count"),
            "vaut.preimage_letter_steps": (
                counts.get("vaut.preimage_letter_steps", 0),
                "count",
            ),
            "vaut.validations": (counts.get("vaut.validations", 0), "count"),
            "ledger.checks_failed": (counts.get("ledger.checks_failed", 0), "count"),
            "io.docs_written": (counts.get("io.docs_written", 0), "count"),
            "io.doc_bytes_written": (counts.get("io.doc_bytes_written", 0), "bytes"),
            "io.index_bytes_rewritten": (
                counts.get("io.index_bytes_rewritten", 0),
                "bytes",
            ),
            "io.store_p50_ms": (_quantile(store_ms, 0.50), "ms"),
            "io.store_p99_ms": (_quantile(store_ms, 0.99), "ms"),
            "io.store_wait_s": (counts.get("io.store_wait_s", 0.0), "s"),
            "io.docs_loaded": (counts.get("io.docs_loaded", 0), "count"),
            "io.load_s": (load_time, "s"),
        }
    )
    accounted = sum(layer_self.values())
    out["trace.spans"] = (n, "count")
    out["trace.accounted_ratio"] = (accounted / trace_wall if trace_wall else 0.0, "ratio")
    return out


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[min(98, max(0, round(q * 100) - 1))]
