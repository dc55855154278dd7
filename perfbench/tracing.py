"""Per-layer tracing of in-process fmzv CLI runs.

The program's code is left untouched.  ``Tracer.install`` replaces each
layer's public functions at the names their callers bound (for example
``fmzv.verify.family_sum_star``, since ``verify`` imports that name) with
wrappers that record a span: name, parent span, start and end.  Spans stay
in memory; ``aggregate`` turns them into per-name counts, inclusive times and
self times (a span minus its child spans) once the run is over, and
``layer_metrics`` maps those onto the per-layer metrics below.

A layer is the module a span name starts with.  A ``*_s`` metric is the
self time of the layer's spans it names, so the layers' times add up to
the time of ``cli.main``; ``trace.coverage`` says how much of it they
account for.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import os
import statistics
import sys
import time
from collections import Counter

# name -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "harmonic.family_calls": ("count", "lower", "wall_s on family"),
    "harmonic.family_s": ("s", "lower", "wall_s on family"),
    "harmonic.family_builds": ("count", "lower", "wall_s on family"),
    "harmonic.mhs_calls": ("count", "lower", "wall_s on index"),
    "harmonic.mhs_s": ("s", "lower", "wall_s on index"),
    "bernoulli.table_builds": ("count", "lower", "wall_s and peak_rss_mb on zeta; little on family"),
    "bernoulli.table_s": ("s", "lower", "wall_s and peak_rss_mb on zeta; little on family"),
    "bernoulli.altsum_s": ("s", "lower", "wall_s on zeta"),
    "bernoulli.reads_per_table": ("ratio", "higher", "wall_s on zeta and family"),
    "modfield.ctx_built": ("count", "lower", "wall_s on zeta"),
    "modfield.memo_builds": ("count", "lower", "wall_s on family and zeta"),
    "modfield.memo_hits": ("count", "higher", "wall_s on family"),
    "modfield.memo_hit_ratio": ("ratio", "higher", "wall_s on family"),
    "modfield.factorials_s": ("s", "lower", "wall_s on zeta"),
    "indices.enum_items": ("count", "lower", "wall_s on family"),
    "indices.enum_s": ("s", "lower", "wall_s on family"),
    "indices.parse_calls": ("count", "lower", "wall_s on index"),
    "indices.parse_s": ("s", "lower", "wall_s on index"),
    "verify.evaluate_s": ("s", "lower", "wall_s on index; little on zeta"),
    "verify.sort_s": ("s", "lower", "wall_s on index; little on zeta"),
    "records.count": ("count", "higher", "none: must equal the seed's count"),
    "records.build_s": ("s", "lower", "wall_s on index; little on zeta"),
    "records.serialize_s": ("s", "lower", "wall_s on index; little on zeta"),
    "cli.self_s": ("s", "lower", "wall_s on index; little on zeta"),
    "cli.bytes_out": ("bytes", "higher", "none: must equal the seed's bytes"),
    "cli.pool_speedup": ("ratio", "higher", "informs --jobs claims; index only; not gated"),
    "polys.fp_calls": ("count", "lower", "wall_s on symbolic only"),
    "polys.fp_s": ("s", "lower", "wall_s on symbolic only"),
    "polys.rat_s": ("s", "lower", "wall_s on symbolic only"),
    "symbolic.gf_series_calls": ("count", "lower", "wall_s on symbolic only"),
    "symbolic.gf_series_distinct": ("count", "lower", "wall_s on symbolic only"),
    "symbolic.gf_series_s": ("s", "lower", "wall_s on symbolic only"),
    "symbolic.polylog_s": ("s", "lower", "wall_s on symbolic only"),
    "symbolic.hypcong_s": ("s", "lower", "wall_s on symbolic only"),
    "symbolic.gauss_s": ("s", "lower", "wall_s on symbolic only"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced time of cli.main"),
    "trace.coverage": ("ratio", "higher", "none: share of cli.main inside named layers"),
}

# (module, name the module bound, span): plain functions.
FUNCTIONS = (
    ("cli", "evaluate_tasks_for_prime", "verify.evaluate"),
    ("cli", "record_sort_key", "verify.sort_key"),
    ("cli", "check_tasks", "verify.check_tasks"),
    ("cli", "primes_in_range", "modfield.primes_in_range"),
    ("cli", "zeta_sweep_row", "bernoulli.sweep_row"),
    ("cli", "run_phi0_suite", "symbolic.phi0"),
    ("cli", "run_hypcong_suite", "symbolic.hypcong"),
    ("cli", "run_gauss_suite", "symbolic.gauss"),
    ("cli", "run_anl_suite", "symbolic.anl"),
    ("verify", "family_sum_star", "harmonic.family"),
    ("verify", "family_sum_alt_strict", "harmonic.family"),
    ("verify", "family_sum_star_unrestricted", "harmonic.family"),
    ("verify", "mhs_strict", "harmonic.mhs"),
    ("verify", "mhs_star", "harmonic.mhs"),
    ("verify", "zeta_residue", "bernoulli.zeta_residue"),
    ("bernoulli", "zeta_residue", "bernoulli.zeta_residue"),
    ("bernoulli", "alternating_power_sum", "bernoulli.altsum"),
    ("verify", "binom_mod", "modfield.binom_mod"),
    ("verify", "prime_ctx", "modfield.prime_ctx"),
    ("bernoulli", "prime_ctx", "modfield.prime_ctx"),
    ("symbolic", "prime_ctx", "modfield.prime_ctx"),
    ("verify", "comparison_record", "records.build"),
    ("verify", "skipped_record", "records.build"),
    ("bernoulli", "comparison_record", "records.build"),
    ("symbolic", "comparison_record", "records.build"),
    ("symbolic", "skipped_record", "records.build"),
    ("symbolic", "polylog_star_coeff", "symbolic.polylog"),
    ("symbolic", "fp_add", "polys.fp"),
    ("symbolic", "fp_mul", "polys.fp"),
    ("symbolic", "fp_scale", "polys.fp"),
    ("symbolic", "fp_pochhammer_poly", "polys.fp"),
)

# (module, name the module bound): generators; each next() is an indices.enum span.
GENERATORS = (
    ("harmonic", "iter_admissible_indices"),
    ("harmonic", "iter_all_indices"),
    ("verify", "iter_all_indices"),
    ("verify", "iter_indices_of_weight"),
    ("symbolic", "iter_admissible_indices"),
)

# (module, class, method, span): methods, wrapped on the class itself.
METHODS = (
    ("indices", "Index", "parse", "indices.parse"),
    ("records", "VerificationRecord", "to_json_dict", "records.serialize"),
    *(("polys", "FpRatFunc", m, "polys.fp")
      for m in ("__init__", "__mul__", "__sub__", "scale", "eval_at")),
    *(("polys", "RatFunc", m, "polys.rat")
      for m in ("__init__", "__add__", "__sub__", "__mul__", "__truediv__",
                "subs_neg", "regular_at_zero", "taylor", "__eq__", "__str__")),
    *(("polys", "Poly", m, "polys.rat")
      for m in ("__add__", "__sub__", "__mul__", "__neg__", "__call__", "subs_neg")),
    ("polys", "BiSeries", "__init__", "polys.rat"),
    ("polys", "BiSeries", "coeff", "polys.rat"),
)

# PrimeCtx.memo table key (its first element, for tuple keys) -> span of a build.
MEMO_SPANS = {
    "inverse_power_rows": "harmonic.inverse_power_rows",
    "family_table": "harmonic.family_build",
    "family_star_all": "harmonic.family_build",
    "bernoulli_table": "bernoulli.table",
    "bernoulli_even": "bernoulli.table",
    "factorials": "modfield.factorials",
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans and counters of one traced pass, all kept in memory."""

    def __init__(self, fmzv_modules: dict):
        self.mods = fmzv_modules
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name id, parent index, start ns, end ns]
        self._stack = [-1]
        self.memo_builds: Counter = Counter()
        self.memo_hits: Counter = Counter()
        self.enum_items = 0
        self.gf_args: set = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        return self._call(self._id(name), fn, args, kwargs)

    def _call(self, nid, fn, args, kwargs):
        stack = self._stack
        record = [nid, stack[-1], 0, 0]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter_ns()
            stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        call = self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(nid, fn, args, kwargs)
        return traced

    def wrap_generator(self, fn):
        nid = self._id("indices.enum")
        call = self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = call(nid, next, (it,), {})
                except StopIteration:
                    return
                self.enum_items += 1
                yield item
        return traced

    def _traced_memo(self, memo):
        def traced(ctx, key, build):
            kind = key[0] if isinstance(key, tuple) else key
            built = []

            def counted_build():
                built.append(True)
                return self.call(MEMO_SPANS.get(kind, "modfield.memo_build"), build)
            value = memo(ctx, key, counted_build)
            (self.memo_builds if built else self.memo_hits)[kind] += 1
            return value
        return traced

    def _traced_gf_series(self, gf):
        wrapped = self.wrap("symbolic.gf_series", gf)

        def traced(*args, **kwargs):
            self.gf_args.add((args, tuple(sorted(kwargs.items()))))
            return wrapped(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def install(self):
        """Patch the wrappers in for the duration of the block."""
        mods = self.mods
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        try:
            for mod, attr, span in FUNCTIONS:
                patch(mods[mod], attr, self.wrap(span, getattr(mods[mod], attr)))
            for mod, attr in GENERATORS:
                patch(mods[mod], attr, self.wrap_generator(getattr(mods[mod], attr)))
            for mod, cls_name, attr, span in METHODS:
                cls = getattr(mods[mod], cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    patch(cls, attr, classmethod(self.wrap(span, raw.__func__)))
                else:
                    patch(cls, attr, self.wrap(span, raw))
            ctx_cls = mods["modfield"].PrimeCtx
            patch(ctx_cls, "memo", self._traced_memo(ctx_cls.__dict__["memo"]))
            symbolic = mods["symbolic"]
            patch(symbolic, "gf_coeff_series", self._traced_gf_series(symbolic.gf_coeff_series))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def aggregate(self) -> dict[str, dict]:
        """Per span name: count, calls from another layer, total and self seconds."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for i, (nid, parent, start, end) in enumerate(spans):
            name = self.names[nid]
            entry = out.setdefault(name, {"count": 0, "entries": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["count"] += 1
            if parent < 0 or _layer(self.names[spans[parent][0]]) != _layer(name):
                entry["entries"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns[i]) / 1e9
        return out

    def dump(self) -> dict:
        """The raw spans, for writing out once the run is over."""
        return {"names": self.names, "spans": self.spans}


class Package:
    """The fmzv modules of the checkout's ``src``, imported into this process."""

    NAMES = ("cli", "verify", "harmonic", "bernoulli", "modfield", "indices",
             "records", "polys", "symbolic")

    def __init__(self, src: str = "src"):
        src = os.path.abspath(src)
        sys.path.insert(0, src)
        self.modules = {n: importlib.import_module(f"fmzv.{n}") for n in self.NAMES}
        if not self.modules["cli"].__file__.startswith(src + os.sep):
            raise ImportError(f"fmzv was not imported from {src}")
        # The caches a fresh CLI process starts without, held before any patching.
        self.caches = (self.modules["modfield"].prime_ctx,
                       self.modules["symbolic"].gf_coeff_series)

    def run_cli(self, argv: list[str], tracer: Tracer | None = None):
        """Run ``fmzv.cli.main(argv)`` with captured output, as a fresh process would.

        Returns (exit code, stdout bytes, seconds in main, prime contexts built).
        """
        for cache in self.caches:
            cache.cache_clear()
        main = self.modules["cli"].main
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = main(argv) if tracer is None else tracer.call("cli.main", main, argv)
            seconds = time.perf_counter() - start
        return code, out.getvalue().encode(), seconds, self.caches[0].cache_info().misses


def layer_metrics(agg: dict, tracer: Tracer, *, records: int, bytes_out: int,
                  ctx_built: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass (every name of PER_LAYER but
    the two measured outside it: cli.pool_speedup and trace.overhead_s)."""

    def count(*names):
        return sum(agg[n]["count"] for n in names if n in agg)

    def self_s(*names):
        return sum(agg[n]["self_s"] for n in names if n in agg)

    table_builds = tracer.memo_builds["bernoulli_table"]
    builds = sum(tracer.memo_builds.values())
    hits = sum(tracer.memo_hits.values())
    main_s = agg["cli.main"]["total_s"]
    return {
        "harmonic.family_calls": count("harmonic.family"),
        "harmonic.family_s": self_s("harmonic.family", "harmonic.family_build"),
        "harmonic.family_builds": count("harmonic.family_build"),
        "harmonic.mhs_calls": count("harmonic.mhs"),
        "harmonic.mhs_s": self_s("harmonic.mhs"),
        "bernoulli.table_builds": table_builds,
        "bernoulli.table_s": self_s("bernoulli.table"),
        "bernoulli.altsum_s": self_s("bernoulli.altsum"),
        "bernoulli.reads_per_table": (count("bernoulli.zeta_residue") / table_builds
                                      if table_builds else 0.0),
        "modfield.ctx_built": ctx_built,
        "modfield.memo_builds": builds,
        "modfield.memo_hits": hits,
        "modfield.memo_hit_ratio": hits / (hits + builds) if hits + builds else 0.0,
        "modfield.factorials_s": self_s("modfield.factorials"),
        "indices.enum_items": tracer.enum_items,
        "indices.enum_s": self_s("indices.enum"),
        "indices.parse_calls": count("indices.parse"),
        "indices.parse_s": self_s("indices.parse"),
        "verify.evaluate_s": self_s("verify.evaluate"),
        "verify.sort_s": self_s("verify.sort_key"),
        "records.count": records,
        "records.build_s": self_s("records.build"),
        "records.serialize_s": self_s("records.serialize"),
        "cli.self_s": self_s("cli.main"),
        "cli.bytes_out": bytes_out,
        "polys.fp_calls": agg.get("polys.fp", {}).get("entries", 0),
        "polys.fp_s": self_s("polys.fp"),
        "polys.rat_s": self_s("polys.rat"),
        "symbolic.gf_series_calls": count("symbolic.gf_series"),
        "symbolic.gf_series_distinct": len(tracer.gf_args),
        "symbolic.gf_series_s": self_s("symbolic.gf_series"),
        "symbolic.polylog_s": self_s("symbolic.polylog"),
        "symbolic.hypcong_s": self_s("symbolic.hypcong"),
        "symbolic.gauss_s": self_s("symbolic.gauss"),
        "trace.coverage": (sum(e["self_s"] for n, e in agg.items() if n != "cli.main")
                           / main_s if main_s else 0.0),
    }


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
