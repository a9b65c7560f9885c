"""Layer spans recorded from outside the package, by patching its names.

`Tracer.install(package)` wraps every public function of the library
modules, the Chern-ring and Schubert-basis methods, and `cli.main`, in a
span, except the functions of `exact`, which it wraps in a bare call
counter.  Either kind can be installed alone.  Each wrapper is written
back under every name that refers to the original function in any
loaded module of the package, so a name brought in with `from .x import
y` is traced like the definition itself.

A span's self time is its duration minus the durations of the spans it
directly encloses, less the wrapper cost of each of those spans.  Spans
nest strictly (one thread, no generators among the patched functions),
so the children of a span never overlap and their durations add up to
the part of its interval they cover.  Aggregates are kept in memory and
read once, at the end of a run.

A wrapper's own work falls partly outside its clock window: a span's
call, push, pop and aggregate updates, and a counter's call and
increment, land in the time of the span that encloses the call.  For a
span, `measure_leak` times that cost (about 1 us a call) on a span
around a no-op, and the self time of each enclosing span is reduced by
it once per child.  For counters there is no such correction: the
double sums and the q-series call `exact` tens of thousands of times,
and bare counters there add about a third to `flexdeg.nd_double_sum`'s
time.  So the benchmark takes the `exact` call counts from repetitions
of their own, with counters and no spans, and times spans with `exact`
unwrapped.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Callable

LIBRARY_MODULES = ("exact", "truncpoly", "schubert", "flexdeg", "qseries")
COUNTER_MODULES = ("exact",)  # functions counted, not timed
LEAK_CHILDREN, LEAK_REPEATS = 2000, 7  # 15-30 ms of measuring per repetition

# Functions whose span is not named "<module>.<function>".  The two asym
# functions share one span, so their layer metric adds them together.
RENAMED = {
    "qseries.euler_power_neg24_by_product": "qseries.product_oracle",
    "qseries.asym_flex": "qseries.asym",
    "qseries.asym_yz": "qseries.asym",
}
# Methods wrapped in spans, by (module, class); both Pieri steps share one.
METHODS = {
    ("truncpoly", "GradedBivariate"): {
        "__mul__": "truncpoly.mul",
        "power": "truncpoly.power",
        "invert": "truncpoly.invert",
        "graded_part": "truncpoly.graded_part",
    },
    ("schubert", "SchubertElement"): {
        "pieri_sigma1": "schubert.pieri",
        "mul_sigma2": "schubert.pieri",
    },
}

# Names whose call count, and spans whose self time, are layer metrics.
COUNTED = (
    "truncpoly.chern_total",
    "truncpoly.mul",
    "schubert.pieri",
    "schubert.monomial_integral",
    "exact.binomial",
    "exact.catalan",
    "exact.exact_div",
    "qseries.euler_power_neg24",
)
TIMED = (
    "truncpoly.chern_total",
    "truncpoly.power",
    "truncpoly.invert",
    "truncpoly.mul",
    "truncpoly.graded_part",
    "schubert.pieri",
    "schubert.monomial_integral",
    "flexdeg.nd_closed",
    "flexdeg.nd_factorial",
    "flexdeg.nd_double_sum",
    "flexdeg.nd_chern_monomial",
    "flexdeg.nd_chern_schubert",
    "flexdeg.flex_report",
    "qseries.euler_power_neg24",
    "qseries.divisor_sums",
    "qseries.product_oracle",
    "qseries.crossover",
    "qseries.asym",
    "cli.main",
)


def _noop() -> None:
    pass


def _call_each(fn: Callable, times: int) -> None:
    for _ in range(times):
        fn()


class Tracer:
    """Span aggregates: calls, total time and self time per span name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)  # before the leak
        self.children: Counter[str] = Counter()  # spans directly inside, over all calls
        self.leak_s = 0.0  # wrapper cost a child span adds to its parent's time
        self.open_spans: list[list[float]] = []  # per open span: [child time, children]
        self._patched: list[tuple[object, str, object]] = []
        # Work counters read by the layer metrics.
        self.tables: dict[int, object] = {}  # id -> chern_total result
        self.graded_terms = 0
        self.series: dict[int, object] = {}  # id -> euler_power_neg24 result
        self.coeffs_built = 0
        self.coeffs_read: set[int] = set()
        self._chern = None
        self.installed = {"spans": False, "counters": False}

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Return fn wrapped in a span called name; after(result) runs outside it."""
        clock, stack = self.clock, self.open_spans
        calls, total_s, self_s, children = self.calls, self.total_s, self.self_s, self.children

        def traced(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                calls[name] += 1
                total_s[name] += duration
                self_s[name] += duration - frame[0]
                children[name] += frame[1]
                if stack:
                    stack[-1][0] += duration
                    stack[-1][1] += 1
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def self_time(self, name: str) -> float:
        """Self time of span name over all its calls, less its children's wrapper cost."""
        return max(0.0, self.self_s[name] - self.leak_s * self.children[name])

    def measure_leak(self) -> None:
        """Set leak_s: the median, over LEAK_REPEATS, of the time a parent
        span of LEAK_CHILDREN child spans loses per child, against the same
        loop of plain calls."""
        children, repeats = LEAK_CHILDREN, LEAK_REPEATS
        probe = Tracer(self.clock)
        parent, child = probe.wrap("parent", _call_each), probe.wrap("child", _noop)
        leaks = []
        for _ in range(repeats):
            start = self.clock()
            _call_each(_noop, children)
            plain = self.clock() - start
            before = probe.self_s["parent"]
            parent(child, children)
            leaks.append((probe.self_s["parent"] - before - plain) / children)
        self.leak_s = max(0.0, sorted(leaks)[repeats // 2])

    def count(self, name: str, fn: Callable) -> Callable:
        """Return fn wrapped in a bare call counter: no clock, no span."""
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        counted.__name__ = getattr(fn, "__name__", name)
        return counted

    def install(self, package, spans: bool = True, counters: bool = True) -> None:
        """Patch the package's loaded modules; see the module docstring."""
        self.installed = {"spans": spans, "counters": counters}
        prefix = package.__name__
        modules = [m for n, m in sys.modules.items() if n == prefix or n.startswith(prefix + ".")]
        replace: dict[int, tuple[object, Callable]] = {}
        for short in LIBRARY_MODULES:
            mod = sys.modules[f"{prefix}.{short}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if short in COUNTER_MODULES:
                    if counters:
                        replace[id(obj)] = (obj, self.count(name, obj))
                elif spans:
                    replace[id(obj)] = (obj, self.wrap(RENAMED.get(name, name), obj, self._after(name)))
        cli = sys.modules[f"{prefix}.cli"]
        if spans:
            replace[id(cli.main)] = (cli.main, self.wrap("cli.main", cli.main))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        if not spans:
            return
        for (short, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules[f"{prefix}.{short}"], cls_name, None)
            for attr, name in methods.items():
                if cls is not None and attr in vars(cls):
                    after = self._count_graded if name == "truncpoly.graded_part" else None
                    self._set(cls, attr, self.wrap(name, vars(cls)[attr], after))
        series_cls = getattr(sys.modules[f"{prefix}.qseries"], "IntSeries", None)
        if series_cls is not None and "__getitem__" in vars(series_cls):
            self._set(series_cls, "__getitem__", self._reading_getitem(vars(series_cls)["__getitem__"]))
        if series_cls is not None and "__iter__" in vars(series_cls):
            self._set(series_cls, "__iter__", self._reading_iter(vars(series_cls)["__iter__"]))
        chern = getattr(sys.modules[f"{prefix}.truncpoly"], "chern_total", None)
        self._chern = getattr(chern, "__wrapped__", chern)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def originals(self) -> set[int]:
        """ids of every function or method the installed wrappers replaced."""
        return {id(original) for _, _, original in self._patched}

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _after(self, name: str) -> Callable | None:
        if name == "truncpoly.chern_total":
            return lambda table: self.tables.setdefault(id(table), table)
        if name == "qseries.euler_power_neg24":
            return self._count_series
        return None

    def _count_graded(self, part) -> None:
        self.graded_terms += len(part)

    def _count_series(self, series) -> None:
        self.series[id(series)] = series
        self.coeffs_built += len(series)

    def _reading_getitem(self, getitem: Callable) -> Callable:
        def __getitem__(series, n):
            if id(series) in self.series:
                self.coeffs_read.add(n)
            return getitem(series, n)

        return __getitem__

    def _reading_iter(self, iterate: Callable) -> Callable:
        def __iter__(series):
            if id(series) in self.series:
                self.coeffs_read.update(range(len(series)))
            return iterate(series)

        return __iter__

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of one traced run, keyed by metric name: the call
        counts of whichever wrappers were installed, and, with spans, the rest."""
        out: dict[str, float] = {}
        for name in COUNTED:
            if self.installed["counters" if name.split(".")[0] in COUNTER_MODULES else "spans"]:
                out[f"{name}.calls"] = self.calls[name]
        if not self.installed["spans"]:
            return out
        for name in TIMED:
            out[f"{name}.self_s"] = self.self_time(name)
        info = self._chern.cache_info() if hasattr(self._chern, "cache_info") else None
        lookups = info.hits + info.misses if info else 0
        out["truncpoly.chern_total.cache_hit_frac"] = info.hits / lookups if lookups else 0.0
        table_terms = sum(sum(map(len, getattr(t, "rows", ()))) for t in self.tables.values())
        out["truncpoly.table_terms"] = table_terms
        out["truncpoly.read_frac"] = self.graded_terms / table_terms if table_terms else 0.0
        out["qseries.coeffs_built"] = self.coeffs_built
        out["qseries.build_useful_frac"] = (
            len(self.coeffs_read) / self.coeffs_built if self.coeffs_built else 0.0
        )
        return out
