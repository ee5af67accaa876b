"""Layer spans for the traced run, recorded from outside the program.

:class:`LayerTracer` wraps each layer's public entry points and rebinds
*every* attribute in the ``repro`` package that holds the original object
— ``repro.processor.paradise`` imports ``parse`` by name and
``repro.processor.network`` imports ``pack_relation`` by name, so a
wrapper on the defining module alone would miss those calls.  Methods are
wrapped on their class.  ``uninstall`` restores every binding.

Per span it measures wall and thread-CPU time; a layer's *self* time is
its span minus the child spans on the same thread.  In parallel runs
wall-clock spans summed over worker threads also count GIL and per-node
lock waits, so only the CPU figures add up to the process's CPU time;
``wait`` (self wall minus self CPU) is where those waits show.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

#: Layer name -> the public callables that enter it (``module:qualname``).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sql.parse": ("repro.sql.parser:parse",),
    "rlang.extract": ("repro.rlang.sqlable:extract_sql_from_r",),
    "rewrite.admit": ("repro.rewrite.analyzer:PolicyAnalyzer.admit",),
    "rewrite.rewrite": ("repro.rewrite.rewriter:QueryRewriter.rewrite",),
    "fragment.fragment": ("repro.fragment.fragmenter:VerticalFragmenter.fragment",),
    "runtime.dag_build": ("repro.runtime.dag:build_execution_dag",),
    "runtime.scheduler": ("repro.runtime.scheduler:Scheduler.run",),
    "runtime.standing": ("repro.runtime.standing:StandingQueryRuntime.append",),
    "engine.query": ("repro.engine.database:Database.query",),
    "engine.partial": (
        "repro.engine.database:Database.partial_aggregate",
        "repro.engine.database:Database.combine_partials",
        "repro.engine.database:Database.finalize_partials",
    ),
    "wire.pack": ("repro.engine.wire:pack_relation",),
    "wire.unpack": ("repro.engine.wire:unpack_relation",),
    "network.ship": ("repro.processor.network:NetworkSimulator.ship",),
    "anonymize": ("repro.anonymize.anonymizer:Anonymizer.anonymize",),
}


def _import_all_repro_modules() -> None:
    """Import every ``repro`` module up front.

    A module imported lazily while the tracer is installed would bind the
    wrapper by name and keep it after ``uninstall``.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


class LayerTracer:
    """Accumulates per-layer call counts and self times; keeps every span."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: layer -> [calls, self wall seconds, self CPU seconds]
        self.totals: Dict[str, List[float]] = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        #: (layer, thread id, start, wall seconds, op index or None)
        self.spans: List[Tuple[str, int, float, float, Optional[int]]] = []
        #: Op index stamped on new spans; set only while one client runs.
        self.op: Optional[int] = None
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        _import_all_repro_modules()
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, _, qualname = target.partition(":")
                owner = importlib.import_module(module_name)
                if "." in qualname:
                    class_name, attribute = qualname.split(".")
                    cls = getattr(owner, class_name)
                    self._patch(cls, attribute, self._wrap(layer, getattr(cls, attribute)))
                    continue
                original = getattr(owner, qualname)
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)

    def _patch(self, owner: object, name: str, wrapper: object) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- spans ----------------------------------------------------------
    def _wrap(self, layer: str, fn):
        local = self._local
        totals = self.totals[layer]
        lock = self._lock
        spans = self.spans
        perf_counter = time.perf_counter
        thread_time = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            children = [0.0, 0.0]
            stack.append(children)
            start = perf_counter()
            cpu_start = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = thread_time() - cpu_start
                wall = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                    stack[-1][1] += cpu
                with lock:
                    totals[0] += 1
                    totals[1] += wall - children[0]
                    totals[2] += cpu - children[1]
                spans.append((layer, threading.get_ident(), start, wall, self.op))

        return traced

    def chrome_trace(self) -> dict:
        """The spans as Chrome ``trace_event`` JSON (open in Perfetto)."""
        origin = min((span[2] for span in self.spans), default=0.0)
        events = []
        for layer, thread, start, wall, op in self.spans:
            event = {
                "name": layer,
                "cat": layer.split(".")[0],
                "ph": "X",
                "pid": 1,
                "tid": thread,
                "ts": (start - origin) * 1e6,
                "dur": wall * 1e6,
            }
            if op is not None:
                event["args"] = {"op": op}
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}
