"""Layer spans for the traced benchmark run, recorded from outside.

The tracer never edits the program: :func:`install` wraps public
functions and methods of ``repro`` (module attributes, class methods,
the ``GRAPH_FAMILIES`` table) in timing shims, and :func:`uninstall`
puts every original object back.  Each shim opens a *span*; a span's
self time is its duration minus the time of the spans it encloses, so
``Simulator.run`` minus its resolution, observer and fault spans is the
protocol stepping itself.

Spans and counters live in memory and are written out once, as JSON,
when the traced process (or a forked fabric worker) ends.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["Tracer", "install", "uninstall", "merge_dumps"]


class Tracer:
    """Span accumulator: per name, calls, inclusive and child seconds."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = defaultdict(float)
        self.graphs_seen: set = set()
        self._stack: List[List[float]] = []
        self._open: Dict[str, int] = defaultdict(int)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span.  A span already open under the same
        name (a resolver calling a resolver) is not opened twice."""
        if self._open[name]:
            return fn(*args, **kwargs)
        frame = [0.0]
        self._stack.append(frame)
        self._open[name] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            self._open[name] -= 1
            stat = self.spans.get(name)
            if stat is None:
                stat = self.spans[name] = [0, 0.0, 0.0]
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += frame[0]
            if self._stack:
                self._stack[-1][0] += elapsed

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def snapshot(self) -> Dict[str, Any]:
        return {
            "spans": {
                name: {"calls": s[0], "total": s[1], "self": s[1] - s[2]}
                for name, s in self.spans.items()
            },
            "counters": dict(self.counters),
        }

    def dump(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"trace-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)


TRACER = Tracer()

# (owner, attribute, original) for every patch, in install order.
_PATCHES: List[Tuple[Any, str, Any]] = []


def _set(owner: Any, attr: str, value: Any) -> None:
    if isinstance(owner, dict):
        _PATCHES.append((owner, attr, owner[attr]))
        owner[attr] = value
    else:
        _PATCHES.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)


def _rebind(module_name: str, attr: str, wrapper: Callable) -> None:
    """Replace a module-level function and every ``from``-import alias
    of it in the already-loaded ``repro`` modules."""
    original = getattr(importlib.import_module(module_name), attr)
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                _set(module, key, wrapper(original))


def _import_program() -> None:
    """Import every ``repro`` module up front, so each ``from``-import
    alias exists (and is patched, and restored) before any call."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _methods(cls: type, method: str) -> List[type]:
    """``cls`` and its subclasses that define ``method`` themselves."""
    found, todo = [], [cls]
    while todo:
        klass = todo.pop()
        if method in klass.__dict__:
            found.append(klass)
        todo.extend(klass.__subclasses__())
    return sorted(set(found), key=lambda k: (k.__module__, k.__qualname__))


def _span(name: str) -> Callable[[Callable], Callable]:
    def wrap(fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return TRACER.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced
    return wrap


def _patch_method(cls: type, method: str, wrap: Callable) -> None:
    for klass in _methods(cls, method):
        _set(klass, method, wrap(klass.__dict__[method]))


def _engine_results(results, serial: bool) -> None:
    for result in results:
        TRACER.count("sim.gen_entries", result.gen_entries)
        TRACER.count("sim.sim_slots", result.duration)
        if serial:
            TRACER.count("sim.serial_gen_entries", result.gen_entries)
        reason = getattr(result, "soa_reason", None)
        if reason is not None:
            TRACER.count("sim.soa_trials")
            TRACER.count(f"sim.soa_reason.{reason}")


def install(trace_dir: str) -> None:
    """Patch every layer boundary and arrange for span dumps into
    ``trace_dir`` when this process or a fabric worker exits."""
    if _PATCHES:
        raise RuntimeError("tracer already installed")
    _import_program()
    from repro.campaign import cells, registry
    from repro.campaign.spec import CampaignSpec
    from repro.campaign.store import CampaignStore
    from repro.campaign.fabric import workers
    from repro.sim import faults, observers, resolution
    from repro.sim.engine import Simulator

    TRACER.reset()

    # repro.campaign: spec, blocks, store, aggregate.
    spec_span = _span("campaign.spec")
    from_json = CampaignSpec.__dict__["from_json_file"].__func__
    _set(CampaignSpec, "from_json_file", classmethod(spec_span(from_json)))
    _patch_method(CampaignSpec, "validate", spec_span)
    _rebind("repro.campaign.runner", "plan_pending", spec_span)

    def block_wrap(fn):
        def traced(row, size, seeds, options):
            start = perf_counter()
            try:
                return TRACER.call("campaign.block", fn, row, size, seeds, options)
            finally:
                TRACER.count(f"row.{row}.block_s", perf_counter() - start)
        return traced

    _rebind("repro.campaign.registry", "execute_cell_block", block_wrap)

    def store_write(fn):
        def traced(self, records):
            TRACER.count("campaign.store_records", len(records))
            return TRACER.call("campaign.store_write", fn, self, records)
        return traced

    _patch_method(CampaignStore, "append_many", store_write)
    _patch_method(CampaignStore, "load", _span("campaign.store_read"))
    _rebind("repro.campaign.aggregate", "aggregate_campaign",
            _span("campaign.aggregate"))
    _rebind("repro.campaign.fabric.shards", "merge_shards",
            _span("fabric.merge"))

    # repro.graphs: family constructors and the knowledge diameter.
    for family in sorted(registry.GRAPH_FAMILIES):
        _set(registry.GRAPH_FAMILIES, family,
             _span("graphs.build")(registry.GRAPH_FAMILIES[family]))

    diameter = cells.graph_diameter

    def traced_diameter(graph):
        fingerprint = (graph.n, graph.edges)
        if fingerprint in TRACER.graphs_seen:
            TRACER.count("graphs.diameter_repeats")
        else:
            TRACER.graphs_seen.add(fingerprint)
        return TRACER.call("graphs.diameter", diameter, graph)

    _set(cells, "graph_diameter", traced_diameter)

    # repro.sim: engines.
    def run_wrap(fn):
        def traced(*args, **kwargs):
            result = TRACER.call("sim.run", fn, *args, **kwargs)
            _engine_results((result,), serial=True)
            return result
        return traced

    _patch_method(Simulator, "run", run_wrap)

    def lockstep_wrap(fn):
        def traced(*args, **kwargs):
            results = TRACER.call("sim.lockstep", fn, *args, **kwargs)
            _engine_results(results, serial=False)
            return results
        return traced

    _rebind("repro.sim.lockstep", "run_trials_lockstep", lockstep_wrap)
    _rebind("repro.sim.trialsoa", "run_trials_soa", _span("sim.soa"))

    # Resolution: time the resolvers the backends hand out.
    def resolver_wrap(fn):
        def traced(self, *args):
            resolver = fn(self, *args)

            def timed(*args):
                if not TRACER._open["sim.resolution"]:
                    TRACER.count("sim.resolve_calls")
                return TRACER.call("sim.resolution", resolver, *args)
            return timed
        return traced

    for method in ("slot_resolver", "batch_resolver", "trial_matrix_resolver"):
        _patch_method(resolution.ResolutionBackend, method, resolver_wrap)

    observer_span = _span("sim.observers")
    for base in (observers.EnergyObserver, observers.TraceObserver,
                 observers.ContentionHistogramObserver):
        for method in ("on_slot", "observe_matrix"):
            _patch_method(base, method, observer_span)

    fault_span = _span("sim.faults")
    _patch_method(faults.FaultPlan, "for_trial", fault_span)
    _patch_method(faults.CrashSchedule, "down", fault_span)
    _patch_method(faults.Jammer, "jams", fault_span)
    for model in (faults.JammedModel, faults.GilbertElliottModel):
        _patch_method(model, "begin_slot", fault_span)

    # Fabric workers fork with these patches in place; each one starts
    # from empty spans and dumps its own file when its loop returns.
    worker_main = workers.fabric_worker_main

    def traced_worker(*args, **kwargs):
        TRACER.reset()
        try:
            return worker_main(*args, **kwargs)
        finally:
            TRACER.dump(trace_dir)

    _set(workers, "fabric_worker_main", traced_worker)


def uninstall() -> int:
    """Restore every patched attribute; returns how many were restored."""
    restored = 0
    while _PATCHES:
        owner, attr, original = _PATCHES.pop()
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)
        restored += 1
    return restored


def merge_dumps(directory: str) -> Dict[str, Any]:
    """Sum every process's span dump in ``directory``."""
    spans: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = defaultdict(float)
    processes = 0
    if os.path.isdir(directory):
        for name in sorted(os.listdir(directory)):
            if not (name.startswith("trace-") and name.endswith(".json")):
                continue
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                dump = json.load(handle)
            processes += 1
            for span, stat in dump["spans"].items():
                acc = spans.setdefault(span, {"calls": 0, "total": 0.0, "self": 0.0})
                for key in acc:
                    acc[key] += stat[key]
            for key, value in dump["counters"].items():
                counters[key] += value
    return {"spans": spans, "counters": dict(counters), "processes": processes}
