"""Outside-in tracing: wrappers installed from the benchmark's own files
around the public functions of each profspan layer.

In the traced child, every wrapped call records a span (parent span, name,
op id, start, end) in flat in-memory arrays; a few cheap functions only
bump a counter.  Nothing is written until the run ends, when `dump` saves
the spans, the counters and `cache_info()` snapshots of the package's
caches.  In the parent, `per_layer` turns a dump into the per-layer
metrics: a function's self time is its span minus the spans of the wrapped
calls inside it, and a layer's self time is the sum over its functions.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# Module-level functions timed as spans, by layer.
SPANS = {
    "cli": (
        "main", "cmd_group_show", "cmd_subgroups", "cmd_tom", "cmd_burnside",
        "cmd_span_hom", "cmd_mackey_check", "cmd_mackey_fixed", "cmd_verify",
    ),
    "verify": (
        "verify_colim_gset", "verify_colim_span", "verify_limit_span",
        "verify_adjunction", "verify_mackey_limit", "verify_funcat", "verify_all",
    ),
    "groups": (
        "make_group", "subgroup_lattice", "quotient", "make_subgroup",
        "compose_quotients", "cyclic_tower", "make_tower",
    ),
    "gsets": (
        "make_gset", "coset_gset", "orbit_decompose", "orbit_class_multiset",
        "is_isomorphic", "find_iso", "fixed_points", "counit_map", "unit_map",
        "inflate", "inflate_map", "hom_gset", "coproduct", "pullback",
        "mediating_map", "square_is_pullback", "adjunction_report",
        "fixed_points_map", "canonical_gset", "gset_category",
        "inflation_functor", "discrete_gset_category", "gset_isoclasses",
    ),
    "fincat": (
        "check_equivalence", "colimit_chain", "limit_chain",
        "functor_from_family", "restriction_iso", "naturally_isomorphic",
        "binary_products", "preserves_binary_products",
    ),
    "spans": (
        "canonical_key", "span_basis", "span_from_maps", "identity_span",
        "compose_spans", "burnside_tables", "transport_span",
        "semiadditivity_check", "check_left_exact", "span_of_functor",
    ),
    "mackey": (
        "burnside_mackey", "check_mackey", "zero_mackey", "reduce_mod",
        "categorical_fixed_points", "assemble_from_tower", "tower_family",
        "evaluate",
    ),
    "formats": (
        "parse_group", "parse_tower", "parse_gset", "parse_mackey",
        "serialize_group", "serialize_tower", "serialize_gset",
        "serialize_mackey", "load_group", "load_tower", "load_gset",
        "load_mackey",
    ),
}
# FinCat methods: the iso search is timed, the two hottest calls are counted.
FINCAT_SPANS = ("find_iso", "is_isomorphic", "inverse")
FINCAT_COUNTS = ("compose", "hom")
# The package's lru caches, by the metric that reports them.
CACHES = {
    "groups.subgroup_lattice": ("groups", "subgroup_lattice"),
    "gsets.coset_gset": ("gsets", "coset_gset"),
    "spans.compose_cache": ("spans", "_compose_keys"),
    "mackey.orbit_basis": ("mackey", "_orbit_basis"),
}
ISO_SEARCH = ("fincat.isos", "fincat.find_iso", "fincat.is_isomorphic", "fincat.inverse")
OP = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.parent = array("l")
        self.name = array("H")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.caches: dict = {}

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(nid)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def span(self, name: str, fn, after=None):
        nid, open_, close = self._id(name), self._open, self._close

        def wrapper(*args, **kwargs):
            sid = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            return result if after is None else after(args, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def generator_span(self, name: str, fn):
        """A span per resumption of a generator, so that the caller's time
        between items is not charged to it; creations are counted."""
        nid, open_, close, counts = self._id(name), self._open, self._close, self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            gen = iter(fn(*args, **kwargs))
            while True:
                sid = open_(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    close(sid)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._op_span = self._open(self._id(OP))

    def end_op(self) -> None:
        self._close(self._op_span)

    def _after(self, name: str):
        counts = self.counts

        def add(key, n):
            counts[key] += n

        if name == "gsets.hom_gset":
            return lambda args, r: add("gsets.hom_gset.maps", len(r)) or r
        if name == "spans.span_basis":
            return lambda args, r: add("spans.span_basis.keys", len(r)) or r
        if name == "spans.compose_spans":
            return lambda args, r: add(
                "spans.compose_spans.term_pairs", len(args[0].terms) * len(args[1].terms)
            ) or r
        if name.startswith("formats.parse_"):
            return lambda args, r: add("formats.bytes_read", len(args[0])) or r
        if name == "fincat.is_isomorphic":
            return lambda args, r: add("fincat.is_isomorphic.true", bool(r)) or r
        if name == "spans.span_of_functor":
            return lambda args, r: self.span("spans.span_functor", r)
        return None

    def install(self) -> None:
        """Patch every profspan namespace that bound a wrapped function.
        A function the package no longer has is skipped; its metrics read 0."""
        from profspan import cli, fincat

        mods = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "profspan"}
        for key, (layer, attr) in CACHES.items():
            self.caches[key] = getattr(mods[f"profspan.{layer}"], attr, None)
        swaps = {}
        for layer, funcs in SPANS.items():
            mod = mods[f"profspan.{layer}"]
            for f in funcs:
                orig = getattr(mod, f, None)
                if callable(orig):
                    name = f"{layer}.{f}"
                    swaps[id(orig)] = self.span(name, orig, self._after(name))
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in swaps:
                    setattr(mod, attr, swaps[id(val)])
        commands = getattr(cli, "_COMMANDS", {})
        for verb, fn in list(commands.items()):
            commands[verb] = swaps.get(id(fn), fn)

        cat = fincat.FinCat
        if hasattr(cat, "isos"):
            cat.isos = self.generator_span("fincat.isos", cat.isos)
        for f in FINCAT_SPANS:
            if hasattr(cat, f):
                name = f"fincat.{f}"
                setattr(cat, f, self.span(name, getattr(cat, f), self._after(name)))
        for f in FINCAT_COUNTS:
            if hasattr(cat, f):
                setattr(cat, f, self.counter(f"fincat.{f}", getattr(cat, f)))

    def dump(self, path: Path) -> None:
        caches = {}
        for key, fn in self.caches.items():
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            caches[key] = (
                {"hits": info.hits, "misses": info.misses, "size": info.currsize}
                if info
                else None
            )
        meta = {"names": self.names, "counts": dict(self.counts), "caches": caches}
        path.with_suffix(".json").write_text(json.dumps(meta))
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.parent, self.name, self.op, self.start, self.end):
                arr.tofile(fh)


def load_self_times(path: Path):
    """Per-name self time and span count from a dump, plus its metadata."""
    meta = json.loads(path.with_suffix(".json").read_text())
    arrays = [array(code) for code in "lHldd"]
    with open(path.with_suffix(".bin"), "rb") as fh:
        n = len(fh.read()) // sum(a.itemsize for a in arrays)
        fh.seek(0)
        for arr in arrays:
            arr.fromfile(fh, n)
    parent, name, _, start, end = arrays
    covered = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    names = meta["names"]
    for i in range(n):
        nm = names[name[i]]
        self_s[nm] += end[i] - start[i] - covered[i]
        calls[nm] += 1
    return self_s, calls, meta


# (metric, unit) of every per-layer metric, in report order.
METRICS = [
    ("fincat.iso_search.self_s", "s"),
    ("fincat.compose.calls", "count"),
    ("fincat.hom.calls", "count"),
    ("fincat.is_isomorphic.calls", "count"),
    ("fincat.is_isomorphic.hit_ratio", "ratio"),
    ("fincat.check_equivalence.self_s", "s"),
    ("fincat.colimit_chain.self_s", "s"),
    ("fincat.self_s", "s"),
    ("gsets.hom_gset.calls", "count"),
    ("gsets.hom_gset.self_s", "s"),
    ("gsets.hom_gset.maps", "count"),
    ("gsets.find_iso.self_s", "s"),
    ("gsets.fixed_points.self_s", "s"),
    ("gsets.pullback.self_s", "s"),
    ("gsets.square_is_pullback.self_s", "s"),
    ("gsets.coset_gset.hit_ratio", "ratio"),
    ("gsets.self_s", "s"),
    ("spans.canonical_key.calls", "count"),
    ("spans.canonical_key.self_s", "s"),
    ("spans.span_basis.calls", "count"),
    ("spans.span_basis.self_s", "s"),
    ("spans.span_basis.keys", "count"),
    ("spans.compose_spans.calls", "count"),
    ("spans.compose_spans.self_s", "s"),
    ("spans.compose_spans.term_pairs", "count"),
    ("spans.compose_cache.hit_ratio", "ratio"),
    ("spans.compose_cache.size", "count"),
    ("spans.span_functor.self_s", "s"),
    ("spans.transport_span.self_s", "s"),
    ("spans.burnside_tables.self_s", "s"),
    ("spans.self_s", "s"),
    ("mackey.burnside_mackey.self_s", "s"),
    ("mackey.check_mackey.self_s", "s"),
    ("mackey.categorical_fixed_points.self_s", "s"),
    ("mackey.orbit_basis.hit_ratio", "ratio"),
    ("mackey.self_s", "s"),
    ("groups.subgroup_lattice.calls", "count"),
    ("groups.subgroup_lattice.self_s", "s"),
    ("groups.subgroup_lattice.hit_ratio", "ratio"),
    ("groups.make_group.self_s", "s"),
    ("groups.quotient.self_s", "s"),
    ("groups.self_s", "s"),
    ("formats.parse.self_s", "s"),
    ("formats.serialize.self_s", "s"),
    ("formats.bytes_read", "count"),
    ("formats.self_s", "s"),
    ("cli.requests", "count"),
    ("cli.self_s", "s"),
    ("verify.checks", "count"),
    ("verify.self_s", "s"),
    ("trace_overhead", "ratio"),
]


def per_layer(path: Path, passes: int, overhead: float) -> dict[str, float]:
    """Per-layer metrics from a dump; times and counts are per pass."""
    self_s, calls, meta = load_self_times(path)
    counts, caches = meta["counts"], meta["caches"]

    def selfs(*names):
        return sum(self_s.get(n, 0.0) for n in names) / passes

    def layer(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix + ".")) / passes

    def ncalls(name):
        return calls.get(name, 0) / passes

    def count(name):
        return counts.get(name, 0) / passes

    def hit_ratio(key):
        c = caches.get(key)
        return c["hits"] / (c["hits"] + c["misses"]) if c and c["hits"] + c["misses"] else 0.0

    iso_calls = calls.get("fincat.is_isomorphic", 0)
    compose_cache = caches.get("spans.compose_cache")
    values = {
        "fincat.iso_search.self_s": selfs(*ISO_SEARCH),
        "fincat.compose.calls": count("fincat.compose"),
        "fincat.hom.calls": count("fincat.hom"),
        "fincat.is_isomorphic.calls": ncalls("fincat.is_isomorphic"),
        "fincat.is_isomorphic.hit_ratio": (
            counts.get("fincat.is_isomorphic.true", 0) / iso_calls if iso_calls else 0.0
        ),
        "gsets.coset_gset.hit_ratio": hit_ratio("gsets.coset_gset"),
        "gsets.hom_gset.maps": count("gsets.hom_gset.maps"),
        "spans.span_basis.keys": count("spans.span_basis.keys"),
        "spans.compose_spans.term_pairs": count("spans.compose_spans.term_pairs"),
        "spans.compose_cache.hit_ratio": hit_ratio("spans.compose_cache"),
        "spans.compose_cache.size": compose_cache["size"] if compose_cache else 0,
        "mackey.orbit_basis.hit_ratio": hit_ratio("mackey.orbit_basis"),
        "groups.subgroup_lattice.hit_ratio": hit_ratio("groups.subgroup_lattice"),
        "formats.parse.self_s": selfs(*(f"formats.{f}" for f in SPANS["formats"] if f.startswith("parse_"))),
        "formats.serialize.self_s": selfs(*(f"formats.{f}" for f in SPANS["formats"] if f.startswith("serialize_"))),
        "formats.bytes_read": count("formats.bytes_read"),
        "cli.requests": ncalls("cli.main"),
        "verify.checks": sum(ncalls(f"verify.{f}") for f in SPANS["verify"]),
        "trace_overhead": overhead,
    }
    for name, _ in METRICS:
        if name in values:
            continue
        base, _, kind = name.rpartition(".")
        if name == f"{name.split('.')[0]}.self_s":
            values[name] = layer(name.split(".")[0])
        elif kind == "self_s":
            values[name] = selfs(base)
        elif kind == "calls":
            values[name] = ncalls(base)
    return values
