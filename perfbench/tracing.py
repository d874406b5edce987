"""Spans around the program's layer functions, and the per-layer metrics
derived from them.

`Tracer.install` replaces each public function of the layer modules with a
timing wrapper at every binding site in the package (the defining module and
every module that imported the name), so calls between modules are caught.
A few `Field` methods are wrapped as well: the lazy exp/log, NumPy-table and
digit-table builds (only a call that actually builds opens a span), the
vectorised operations and the power-map image.  Scalar field arithmetic is
not wrapped: it runs millions of times per second, so a wrapper would
measure itself; its time lands in the caller's span.

A span is [name, bucket, start, end, parent span, extra].  Spans stay in
memory until `write_spans`.  A span opened on a pool thread (`--jobs 2`)
takes the main thread's innermost open span as its parent; self time
subtracts the union of the children's intervals, so overlapping children
are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("fields", "spectra", "closed_forms", "solvers", "cli")

# public function name -> bucket; other public functions of a layer go to
# DEFAULT_BUCKET[layer]
BUCKETS = {
    "make_field": "fields.build",
    "parse_field_spec": "fields.build",
    "image_table": "spectra.image",
    "ddt_row_power": "spectra.row",
    "sozd_row_power": "spectra.row",
    "ddt_table": "spectra.table",
    "sozd_table": "spectra.table",
    "ddt_entry": "spectra.table",
    "sozd_entry": "spectra.table",
    "differential_uniformity": "spectra.summary",
    "sozd_uniformity": "spectra.summary",
    "summary_to_dict": "spectra.summary",
    "fbct_property_check": "spectra.props",
    "property_report_to_dict": "spectra.props",
    "write_table_csv": "spectra.csv",
    "write_row_csv": "spectra.csv",
    "solve_linearized_trinomial": "solvers.trinomial",
    "solve_quadratic": "solvers.quadratic",
    "affine_root_count": "solvers.affine",
}
DEFAULT_BUCKET = {
    "fields": "fields.other",
    "spectra": "spectra.other",
    "closed_forms": "closed_forms.self",
    "solvers": "solvers.other",
    "cli": "cli.self",
}
PREDICT_PREFIXES = ("predict_", "predicted_")

# Field method -> (bucket, attribute that is set once the method's cache is
# built; while it is set the call is a cache hit and opens no span)
FIELD_METHODS = {
    "_ensure_tables": ("fields.build", "_exp"),
    "_ensure_np": ("fields.build", "_np_exp"),
    "_ensure_digits": ("fields.build", "_digits"),
    "add_matrix": ("fields.vec", "_add_mat"),
    "add_vec": ("fields.vec", None),
    "sub_vec": ("fields.vec", None),
    "mul_vec": ("fields.vec", None),
    "div_vec": ("fields.vec", None),
    "pow_vec": ("fields.vec", None),
    "power_map_table": ("spectra.image", None),
}
TABLE_BUILD_SPAN = "fields.Field._ensure_tables"

# outermost spans of these buckets run under tracemalloc for the peak
# allocation; Python-heavy spans (CSV, summaries) are left out because
# tracemalloc would slow them several-fold.  For the same reason tracemalloc
# is paused inside field builds (millions of small ints at 2^20): the peak
# then counts what was live at the pause plus the peak after it, and leaves
# out the field's own tables.
ALLOC_BUCKETS = frozenset({"spectra.table", "spectra.row", "spectra.image"})
PAUSE_ALLOC_BUCKET = "fields.build"

NAME, BUCKET, START, END, PARENT, EXTRA = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._main = threading.main_thread()
        self._main_stack: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._alloc_depth = 0
        self._mem_base = 0  # bytes live at tracemalloc pauses in this span
        self._mem_peak = 0

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, bucket: str, guard: str | None = None):
        spans, clock = self.spans, time.perf_counter
        tracer = self
        measure_alloc = bucket in ALLOC_BUCKETS
        pause_alloc = bucket == PAUSE_ALLOC_BUCKET
        measure_bytes = bucket == "spectra.csv"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if guard is not None and getattr(args[0], guard, None) is not None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            rec = [name, bucket, 0.0, 0.0, parent, 0]
            spans.append(rec)
            stack.append(rec)
            on_main = stack is tracer._main_stack
            alloc = measure_alloc and on_main and tracer._alloc_depth == 0
            if measure_alloc and on_main:
                tracer._alloc_depth += 1
            if alloc:
                tracer._mem_base = tracer._mem_peak = 0
                tracemalloc.start()
            paused = pause_alloc and on_main and tracemalloc.is_tracing()
            if paused:
                tracer._pause_alloc()
            fobj = (kwargs.get("fobj", args[-1] if args else None)) if measure_bytes else None
            pos = _tell(fobj)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                if paused:
                    tracemalloc.start()
                if alloc:
                    tracer._pause_alloc()
                    rec[EXTRA] = tracer._mem_peak
                if measure_alloc and on_main:
                    tracer._alloc_depth -= 1
                if fobj is not None and pos is not None:
                    end = _tell(fobj)
                    rec[EXTRA] = end - pos if end is not None else 0
                stack.pop()

        return traced

    def _pause_alloc(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        self._mem_peak = max(self._mem_peak, self._mem_base + peak)
        self._mem_base += current
        tracemalloc.stop()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: str = "sbox_spectra") -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package or name.startswith(package + "."))]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{package}.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{name}", _bucket(layer, name))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, name, wrapped[obj])
        field_cls = getattr(sys.modules.get(f"{package}.fields"), "Field", None)
        for meth, (bucket, guard) in FIELD_METHODS.items():
            fn = field_cls.__dict__.get(meth) if field_cls is not None else None
            if inspect.isfunction(fn):
                self._patch(field_cls, meth, self._wrap(fn, f"fields.Field.{meth}", bucket, guard))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _bucket(layer: str, name: str) -> str:
    if name in BUCKETS:
        return BUCKETS[name]
    if layer == "closed_forms" and name.startswith(PREDICT_PREFIXES):
        return "closed_forms.predict"
    return DEFAULT_BUCKET[layer]


def _tell(fobj):
    try:
        return fobj.tell()
    except (AttributeError, OSError, ValueError):
        return None


def _self_time(rec, kids) -> float:
    """Duration minus the union of the children's intervals, clipped to the
    span."""
    start, end = rec[START], rec[END]
    covered, cursor = 0.0, start
    for kid in sorted(kids, key=lambda k: k[START]):
        lo, hi = max(kid[START], cursor), min(kid[END], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return max(0.0, end - start - covered)


def _has_ancestor(rec, pred) -> bool:
    node = rec[PARENT]
    while node is not None:
        if pred(node):
            return True
        node = node[PARENT]
    return False


def _percentile_us(values: list[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, int(share * len(ordered) + 0.999999) - 1))
    return ordered[idx] * 1e6


def layer_metrics(spans: list[list], rounds: int) -> dict[str, float]:
    """Per-layer figures per traced round.  Each span's self time goes to
    one bucket; vectorised field calls made inside the power-map image are
    the image computation and count as spectra.image."""
    kids = defaultdict(list)
    for rec in spans:
        if rec[PARENT] is not None:
            kids[id(rec[PARENT])].append(rec)
    self_s = defaultdict(float)
    durations = defaultdict(list)
    builds = tables_built = csv_bytes = 0
    peak_alloc = 0
    for rec in spans:
        bucket = rec[BUCKET]
        if bucket == "fields.vec" and _has_ancestor(rec, lambda r: r[BUCKET] == "spectra.image"):
            bucket = "spectra.image"
        self_s[bucket] += _self_time(rec, kids.get(id(rec), ()))
        durations[bucket].append(rec[END] - rec[START])
        if rec[NAME] == TABLE_BUILD_SPAN:
            builds += 1
        if bucket == "spectra.csv":
            csv_bytes += rec[EXTRA]
        elif bucket in ALLOC_BUCKETS:
            peak_alloc = max(peak_alloc, rec[EXTRA])
        is_table = bucket == "spectra.table" or rec[NAME].startswith("closed_forms.predicted_")
        if is_table and _has_ancestor(rec, lambda r: r[BUCKET] == "closed_forms.self"):
            tables_built += 1
    r = max(1, rounds)
    csv_time = sum(durations["spectra.csv"])
    return {
        "fields.build_s": self_s["fields.build"] / r,
        "fields.builds": builds / r,
        "fields.vec_s": self_s["fields.vec"] / r,
        "spectra.image_s": self_s["spectra.image"] / r,
        "spectra.row_s": self_s["spectra.row"] / r,
        "spectra.table_self_s": self_s["spectra.table"] / r,
        "spectra.summary_s": self_s["spectra.summary"] / r,
        "spectra.props_s": self_s["spectra.props"] / r,
        "spectra.csv_s": self_s["spectra.csv"] / r,
        "spectra.csv_mib_per_s": csv_bytes / 2**20 / csv_time if csv_time else 0.0,
        "spectra.peak_alloc_mib": peak_alloc / 2**20,
        "closed_forms.predict_s": self_s["closed_forms.predict"] / r,
        "closed_forms.self_s": self_s["closed_forms.self"] / r,
        "closed_forms.tables_built": tables_built / r,
        "solvers.trinomial_p50_us": _percentile_us(durations["solvers.trinomial"], 0.50),
        "solvers.trinomial_p99_us": _percentile_us(durations["solvers.trinomial"], 0.99),
        "solvers.quadratic_p50_us": _percentile_us(durations["solvers.quadratic"], 0.50),
        "solvers.affine_p50_us": _percentile_us(durations["solvers.affine"], 0.50),
        "cli.self_s": self_s["cli.self"] / r,
    }


def write_spans(spans: list[list], path) -> None:
    """CSV of every span: id, name, start and end (s, from the first span),
    parent id (-1 for none), extra (peak bytes or CSV bytes)."""
    ids = {id(rec): i for i, rec in enumerate(spans)}
    origin = spans[0][START] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("id,name,start_s,end_s,parent,extra\n")
        for i, rec in enumerate(spans):
            parent = ids.get(id(rec[PARENT]), -1) if rec[PARENT] is not None else -1
            fh.write(f"{i},{rec[NAME]},{rec[START] - origin:.9f},{rec[END] - origin:.9f},"
                     f"{parent},{rec[EXTRA]}\n")
