"""Layer tracing for the benchmark's traced run.

Wrappers are installed from outside the package, at two kinds of layer
boundary, and removed again afterwards:

* every function that ``oagw.suites`` or ``oagw.evaluate`` imports from
  another oagw module (``iter_fragment``, ``cong_free_below``,
  ``random_element``, ``membership``, ...), plus the two entry points a
  formula request calls, ``oagw.formulas.parse_formula`` and
  ``oagw.evaluate.evaluate``;
* the hot methods of ``GroupElement``, ``Position`` and ``HahnSeries``.

Calls at the first kind of boundary become coarse spans: name, start,
end, parent span and request id, kept in memory and written out when
the run ends.  Element, position and series methods and every
``next()`` on a fragment run hundreds of thousands of times per run, so
they are aggregated instead: a call count and a time per (method,
parent layer).  A layer's self time is the time of its frames minus the
time of the frames nested inside them.

The traced run also keeps a seeded reservoir of the operands that
element ``add``/``scale``/``cmp``/``sign``/``hash``/``lead_mod`` really
see, so that :func:`element_micro_costs` can time those operations with
tracing off on a realistic working set.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import random
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, Iterator, Optional

import oagw.formulas
import oagw.suites
from oagw.elements import GroupElement
from oagw.hahn import HahnSeries
from oagw.positions import Position

# The package re-exports the function evaluate under the submodule's name,
# so the module itself is looked up explicitly.
evaluate_module = importlib.import_module("oagw.evaluate")

# (class, attribute, metric) of the aggregated methods; the metric's
# first part names the layer.
_METHODS = (
    (GroupElement, "__add__", "elements.add"),
    (GroupElement, "__sub__", "elements.sub"),
    (GroupElement, "__neg__", "elements.neg"),
    (GroupElement, "scale", "elements.scale"),
    (GroupElement, "cmp", "elements.cmp"),
    (GroupElement, "__eq__", "elements.eq"),
    (GroupElement, "sign", "elements.sign"),
    (GroupElement, "__hash__", "elements.hash"),
    (GroupElement, "__post_init__", "elements.new"),
    (GroupElement, "lead_mod", "elements.lead_mod"),
    (GroupElement, "is_divisible", "elements.is_divisible"),
    (Position, "__post_init__", "positions.new"),
    (Position, "sort_key", "positions.sort_key"),
    (HahnSeries, "__add__", "hahn.add"),
    (HahnSeries, "__sub__", "hahn.sub"),
    (HahnSeries, "__neg__", "hahn.neg"),
    (HahnSeries, "__mul__", "hahn.mul"),
)

# Element operations whose operands the traced run samples, and how
# many operand tuples each reservoir keeps.
MICRO_OPS = ("add", "scale", "cmp", "sign", "hash", "lead_mod")
RESERVOIR_SIZE = 256

# Layer-boundary names looked up at call time, in the modules whose
# imports define the boundaries.
_IMPORTERS = (oagw.suites, evaluate_module)
# The entry points a formula request calls through module attributes.
_ENTRY_POINTS = ((oagw.formulas, "parse_formula"), (evaluate_module, "evaluate"))
# Layers whose imported helpers are aggregated like methods, not spanned.
_FINE_LAYERS = ("elements", "positions")


def _layer_of(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def patch_targets() -> list[tuple[object, str]]:
    """Every (owner, attribute) the traced run replaces."""
    targets = [(cls, attr) for cls, attr, _ in _METHODS]
    for mod in _IMPORTERS:
        for name, obj in sorted(vars(mod).items()):
            if (
                inspect.isfunction(obj)
                and obj.__module__.startswith("oagw.")
                and obj.__module__ != mod.__name__
            ):
                targets.append((mod, name))
    targets += list(_ENTRY_POINTS)
    return targets


def current_attributes() -> dict[tuple[int, str], object]:
    """The present value of every patch target, for identity checks."""
    return {(id(owner), attr): vars(owner)[attr] for owner, attr in patch_targets()}


class Reservoir:
    """Uniform seeded sample of at most ``size`` items from a stream."""

    def __init__(self, rng: random.Random, size: int = RESERVOIR_SIZE) -> None:
        self.rng = rng
        self.size = size
        self.items: list = []
        self.seen = 0

    def offer(self, item) -> None:
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(item)
            return
        j = int(self.rng.random() * self.seen)
        if j < self.size:
            self.items[j] = item


class Tracer:
    """Span recorder and the wrappers that feed it."""

    def __init__(self, seed: int) -> None:
        self.clock = time.perf_counter
        # frames: [layer, time covered by child frames]; the bottom frame
        # stands for the benchmark itself, outside any request
        self.stack: list[list] = [["bench", 0.0]]
        self.open_spans: list[int] = [-1]
        self.spans: list[tuple] = []
        self.request_id = -1
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.by_parent: defaultdict = defaultdict(lambda: [0, 0.0])
        self.unknown = 0
        self.reservoirs = {
            op: Reservoir(random.Random(f"oagw-bench:reservoir:{seed}:{op}")) for op in MICRO_OPS
        }
        self._saved: list[tuple[object, str, object]] = []

    # -- frames ------------------------------------------------------------

    def _enter_span(self, layer: str, name: str) -> tuple[list, list, int, float]:
        parent = self.stack[-1]
        frame = [layer, 0.0]
        self.stack.append(frame)
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self.open_spans[-1], self.request_id))
        self.open_spans.append(idx)
        return parent, frame, idx, self.clock()

    def _exit_span(self, parent: list, frame: list, idx: int, t0: float) -> None:
        t1 = self.clock()
        dur = t1 - t0
        self.stack.pop()
        self.open_spans.pop()
        parent[1] += dur
        self.self_s[frame[0]] += dur - frame[1]
        name, _, _, pidx, req = self.spans[idx]
        self.spans[idx] = (name, t0, t1, pidx, req)

    @contextlib.contextmanager
    def request(self, request_id: int, layer: str):
        """The root span of one request."""
        self.request_id = request_id
        state = self._enter_span(layer, layer)
        try:
            yield
        finally:
            self._exit_span(*state)
            self.request_id = -1

    # -- wrappers ----------------------------------------------------------

    def _aggregated(self, metric: str, fn: Callable, sample: Optional[Callable]) -> Callable:
        layer = metric.split(".", 1)[0]
        stack, clock, calls = self.stack, self.clock, self.calls
        self_s, by_parent = self.self_s, self.by_parent

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[metric] += 1
            if sample is not None:
                sample(args)
            parent = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                self_s[layer] += dur - frame[1]
                agg = by_parent[(metric, parent[0])]
                agg[0] += 1
                agg[1] += dur

        return wrapper

    def _spanned(self, metric: str, fn: Callable, on_return: Optional[Callable] = None) -> Callable:
        layer = metric.split(".", 1)[0]
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[metric] += 1
            state = self._enter_span(layer, metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit_span(*state)
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _fragments(self, fn: Callable, consumer: Optional[str]) -> Callable:
        """Wrap the fragment generator: time every next(), count yields and cap hits."""
        stack, clock, calls, counts = self.stack, self.clock, self.calls, self.counts
        self_s, by_parent = self.self_s, self.by_parent

        @functools.wraps(fn)
        def wrapper(params, cfg, construction=None) -> Iterator:
            calls["fragments.iter_fragment"] += 1
            inner = fn(params, cfg, construction)
            produced = 0
            while True:
                parent = stack[-1]
                frame = ["fragments", 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    dur = clock() - t0
                    stack.pop()
                    parent[1] += dur
                    self_s["fragments"] += dur - frame[1]
                    agg = by_parent[("fragments.next", parent[0])]
                    agg[0] += 1
                    agg[1] += dur
                produced += 1
                counts["fragments.yielded"] += 1
                if consumer is not None:
                    counts[consumer] += 1
                if produced == cfg.size_cap:
                    counts["fragments.truncated"] += 1
                yield item

        return wrapper

    def _sampler(self, op: str) -> Callable:
        offer = self.reservoirs[op].offer
        if op in ("sign", "hash"):
            return lambda args: offer(args[0])
        return lambda args: offer((args[0], args[1]))

    def _count_unknown(self, verdict) -> None:
        if not verdict.decided:
            self.unknown += 1

    def _wrapper_for(self, owner, attr: str, original) -> Callable:
        if isinstance(owner, type):
            metric = next(m for c, a, m in _METHODS if c is owner and a == attr)
            op = metric.split(".", 1)[1]
            sample = self._sampler(op) if owner is GroupElement and op in MICRO_OPS else None
            return self._aggregated(metric, original, sample)
        layer = _layer_of(original)
        if layer == "fragments" and attr == "iter_fragment":
            consumer = "evaluate.candidates" if owner is evaluate_module else None
            return self._fragments(original, consumer)
        metric = f"{layer}.{attr}"
        if layer in _FINE_LAYERS:
            return self._aggregated(metric, original, None)
        on_return = self._count_unknown if metric == "evaluate.evaluate" else None
        return self._spanned(metric, original, on_return)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr in patch_targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper_for(owner, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        return sum(n for metric, n in self.calls.items() if metric.split(".", 1)[0] == layer)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\trequest\n")
            for name, t0, t1, parent, req in self.spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{req}\n")


def _time_loop(body: Callable[[], None], items: int, min_seconds: float = 0.02) -> float:
    """Median seconds per item over five timings of repeated ``body`` calls."""
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            body()
        if time.perf_counter() - t0 >= min_seconds:
            break
        loops *= 2
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(loops):
            body()
        samples.append((time.perf_counter() - t0) / (loops * items))
    return statistics.median(samples)


def element_micro_costs(reservoirs: dict[str, Reservoir]) -> tuple[dict[str, float], list[str]]:
    """Microseconds per element operation on the sampled operands, tracing off.

    An operation the traced pass never called is timed on the elements
    that the other reservoirs hold (``x op x``, ``scale(2)``,
    ``lead_mod(2)``), and a note says so.
    """
    items = {op: list(r.items) for op, r in reservoirs.items()}
    elements = [x for r in items.values() for item in r
                for x in (item if isinstance(item, tuple) else (item,))
                if isinstance(x, GroupElement)]
    stand_in = {
        "add": lambda a: (a, a),
        "cmp": lambda a: (a, a),
        "scale": lambda a: (a, 2),
        "lead_mod": lambda a: (a, 2),
        "sign": lambda a: a,
        "hash": lambda a: a,
    }
    notes = []
    for op in MICRO_OPS:
        if not items[op]:
            items[op] = [stand_in[op](a) for a in elements[:RESERVOIR_SIZE]]
            notes.append(f"elements.{op}_us: no {op} calls in the traced pass; "
                         "timed on the operands of the other element operations")

    def run_add(xs=items["add"]):
        for a, b in xs:
            a + b

    def run_scale(xs=items["scale"]):
        for a, k in xs:
            a.scale(k)

    def run_cmp(xs=items["cmp"]):
        for a, b in xs:
            a.cmp(b)

    def run_sign(xs=items["sign"]):
        for a in xs:
            a.sign()

    def run_hash(xs=items["hash"]):
        for a in xs:
            hash(a)

    def run_lead_mod(xs=items["lead_mod"]):
        for a, n in xs:
            a.lead_mod(n)

    bodies = {
        "add": run_add,
        "scale": run_scale,
        "cmp": run_cmp,
        "sign": run_sign,
        "hash": run_hash,
        "lead_mod": run_lead_mod,
    }
    costs = {op: _time_loop(bodies[op], len(items[op])) * 1e6 for op in MICRO_OPS}
    return costs, notes
