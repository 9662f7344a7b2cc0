"""Per-layer host-time attribution: spans around calls into ``repro``.

The traced run times the program from the benchmark's side only;
nothing under ``src/`` knows it is being measured. Three kinds of
boundary get a span:

* every public method and property of every class defined in a layer
  module (names without a leading underscore; generator and coroutine
  functions are skipped, because calling them only creates the object);
* every engine callback, attributed to the layer of the module that
  defines it, by wrapping ``Simulator.schedule_at`` and
  ``Simulator.schedule_periodic`` (``schedule`` goes through
  ``schedule_at``). A generator process is attributed to the module of
  its generator function, a periodic timer to its callback's module;
* every broker service handler and event subscription, attributed the
  same way, by wrapping ``Broker.register_service`` / ``subscribe``.

A span's self time is its duration minus the time of the spans it
encloses, so the per-layer self times of one run sum to its wall time.
Spans nest strictly here (one thread, one stack), so the enclosed time
is the plain sum of the children. A call from a layer into
itself is not timed again, only counted: it adds to the same layer's
self time either way, and skipping the clock keeps hot leaf calls
cheap.

Wall time is kept in the tracer and never reaches the simulation, so a
traced run produces the same simulated outputs as an untraced one (the
workloads check this bit for bit).
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import pkgutil
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Module-name prefix -> layer, most specific first.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.simkernel", "simkernel"),
    ("repro.flux.jobmanager", "jobmanager"),
    ("repro.flux.jobspec", "jobmanager"),
    ("repro.flux.scheduler", "jobmanager"),
    ("repro.flux", "flux"),
    ("repro.hardware", "hardware"),
    ("repro.variorum", "variorum"),
    ("repro.columnar", "columnar"),
    ("repro.monitor", "monitor"),
    ("repro.manager", "manager"),
    ("repro.apps", "apps"),
    ("repro.federation", "federation"),
    ("repro.telemetry", "telemetry"),
    ("repro.serving", "serving"),
    ("repro.tenancy", "tenancy"),
)

#: Every layer a report carries, in report order. ``other`` is the rest
#: of ``repro`` (cluster facade, analysis traces, lifecycle, faults);
#: ``bench`` is the benchmark's own code between calls.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for _, layer in LAYER_PREFIXES] + ["other", "bench"]
))

#: Packages whose classes get spans (imported eagerly at install, so a
#: module the program would import lazily is wrapped too).
TRACED_PACKAGES: Tuple[str, ...] = (
    "repro.simkernel", "repro.flux", "repro.hardware", "repro.variorum",
    "repro.columnar", "repro.monitor", "repro.manager", "repro.apps",
    "repro.federation", "repro.telemetry", "repro.serving",
    "repro.tenancy", "repro.analysis", "repro.lifecycle", "repro.faults",
    "repro.cluster",
)


def layer_of_module(module: Optional[str]) -> str:
    """The layer a module belongs to (``bench`` outside ``repro``)."""
    if not module:
        return "bench"
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    if module == "repro" or module.startswith("repro."):
        return "other"
    return "bench"


def _generator_module(gen: Any) -> Optional[str]:
    frame = getattr(gen, "gi_frame", None)
    if frame is None:
        return None
    return frame.f_globals.get("__name__")


def layer_of(callback: Callable) -> str:
    """Layer owning ``callback``, by the ``__module__`` of its code.

    Looks through ``functools.partial``, a generator process's resume
    hooks (the generator function's module owns the work) and a
    periodic timer's fire hook (its callback owns the work).
    """
    target = callback
    while isinstance(target, functools.partial):
        target = target.func
    owner = getattr(target, "__self__", None)
    if owner is not None:
        gen = getattr(owner, "_gen", None)
        if gen is not None:
            module = _generator_module(gen)
            if module is not None:
                return layer_of_module(module)
        inner = getattr(owner, "callback", None)
        if callable(inner) and inner is not target:
            cls_module = type(owner).__module__
            if layer_of_module(cls_module) == "simkernel":
                return layer_of(inner)
    return layer_of_module(getattr(target, "__module__", None))


class LayerTracer:
    """Collects per-layer self time and per-function call counts.

    ``install()`` patches the classes; ``uninstall()`` restores them.
    Counts per wrapped function are ``calls`` (every call) and
    ``entries`` (calls made from another layer).
    """

    def __init__(self, root: str = "bench",
                 clock: Callable[[], float] = time.perf_counter) -> None:
        #: Layer charged with time outside every span: the benchmark's
        #: own code, or the serving shell's event loop in the server.
        self.root = root
        self.clock = clock
        #: Open spans, innermost last: [layer, time of enclosed spans].
        self._stack: List[list] = [[root, 0.0]]
        self._self_s: Dict[str, List[float]] = {l: [0.0] for l in LAYERS}
        self._counts: Dict[str, List[int]] = {}
        self._saved: Dict[Tuple[int, str], Tuple[Any, str, Any]] = {}
        self._subscriptions: Dict[Tuple[int, str, Any], Callable] = {}
        self._t0: Optional[float] = None
        self.wall_s = 0.0

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _cell(self, key: str) -> List[int]:
        cell = self._counts.get(key)
        if cell is None:
            cell = self._counts[key] = [0, 0]
        return cell

    def span(self, fn: Callable, layer: str, key: Optional[str] = None) -> Callable:
        """``fn`` wrapped in a span of ``layer``, counted under ``key``."""
        stack = self._stack
        slot = self._self_s.setdefault(layer, [0.0])
        cell = self._cell(key) if key is not None else [0, 0]
        clock = self.clock

        def traced(*args, **kwargs):
            cell[0] += 1
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            cell[1] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                slot[0] += dur - frame[1]
                stack[-1][1] += dur

        functools.update_wrapper(traced, fn)
        return traced

    def callback_span(self, callback: Callable) -> Callable:
        """An engine/broker callback wrapped in a span of its layer."""
        return self.span(callback, layer_of(callback))

    def start(self) -> None:
        """Zero every accumulator and open the root span."""
        for slot in self._self_s.values():
            slot[0] = 0.0
        for cell in self._counts.values():
            cell[0] = cell[1] = 0
        self._stack[:] = [[self.root, 0.0]]
        self._t0 = self.clock()

    def stop(self) -> None:
        """Close the root span and charge its self time to the root layer."""
        if self._t0 is None:
            raise RuntimeError("tracer was not started")
        if len(self._stack) != 1:
            raise RuntimeError(f"{len(self._stack) - 1} spans still open")
        self.wall_s = self.clock() - self._t0
        self._self_s[self.root][0] += self.wall_s - self._stack[0][1]
        self._t0 = None

    def self_s(self) -> Dict[str, float]:
        return {layer: slot[0] for layer, slot in self._self_s.items()}

    def calls(self, key: str) -> int:
        return self._counts.get(key, [0, 0])[0]

    def entries(self, key: str) -> int:
        return self._counts.get(key, [0, 0])[1]

    def calls_matching(self, suffix: str, layer: Optional[str] = None,
                       entries: bool = False) -> int:
        """Sum over wrapped functions whose key ends with ``suffix``
        (optionally restricted to modules of one layer)."""
        total = 0
        idx = 1 if entries else 0
        for key, cell in self._counts.items():
            if not key.endswith(suffix):
                continue
            if layer is not None and layer_of_module(key.rsplit(":", 1)[0]) != layer:
                continue
            total += cell[idx]
        return total

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner: Any, name: str, value: Any) -> None:
        """Replace ``owner.name``; the first original is restored later."""
        self._saved.setdefault((id(owner), name), (owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in self._saved.values():
            setattr(owner, name, value)
        self._saved.clear()
        self._subscriptions.clear()

    def install(self) -> None:
        """Wrap the engine, the broker and every layer class."""
        for package in TRACED_PACKAGES:
            _import_tree(package)
        self._install_callback_hooks()
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not any(
                module_name == p or module_name.startswith(p + ".")
                for p in TRACED_PACKAGES
            ):
                continue
            layer = layer_of_module(module_name)
            for cls in list(vars(module).values()):
                if inspect.isclass(cls) and cls.__module__ == module_name:
                    self._wrap_class(cls, layer)

    def _wrap_class(self, cls: type, layer: str) -> None:
        if issubclass(cls, (enum.Enum, BaseException)):
            return
        if getattr(cls, "_is_protocol", False):
            return
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = f"{cls.__module__}:{cls.__qualname__}.{name}"
            if isinstance(attr, property):
                if attr.fget is None:
                    continue
                wrapped = property(
                    self.span(attr.fget, layer, key), attr.fset, attr.fdel,
                    attr.__doc__,
                )
            elif isinstance(attr, (staticmethod, classmethod)):
                fn = attr.__func__
                if not _plain(fn):
                    continue
                wrapped = type(attr)(self.span(fn, layer, key))
            elif inspect.isfunction(attr) and _plain(attr):
                wrapped = self.span(attr, layer, key)
            else:
                continue
            self.patch(cls, name, wrapped)

    def _install_callback_hooks(self) -> None:
        from repro.flux.broker import Broker
        from repro.simkernel.engine import Simulator

        tracer = self
        schedule_at = Simulator.schedule_at
        schedule_periodic = Simulator.schedule_periodic
        register_service = Broker.register_service
        subscribe = Broker.subscribe
        unsubscribe = Broker.unsubscribe

        def traced_schedule_at(sim, time, callback, *args, **kwargs):
            return schedule_at(
                sim, time, tracer.callback_span(callback), *args, **kwargs
            )

        def traced_schedule_periodic(sim, period, callback, *args, **kwargs):
            return schedule_periodic(
                sim, period, tracer.callback_span(callback), *args, **kwargs
            )

        def traced_register_service(broker, topic, handler):
            return register_service(broker, topic, tracer.callback_span(handler))

        def traced_subscribe(broker, prefix, callback):
            wrapped = tracer.callback_span(callback)
            tracer._subscriptions[(id(broker), prefix, callback)] = wrapped
            return subscribe(broker, prefix, wrapped)

        def traced_unsubscribe(broker, prefix, callback):
            wrapped = tracer._subscriptions.pop(
                (id(broker), prefix, callback), callback
            )
            return unsubscribe(broker, prefix, wrapped)

        for owner, name, fn, original in (
            (Simulator, "schedule_at", traced_schedule_at, schedule_at),
            (Simulator, "schedule_periodic", traced_schedule_periodic,
             schedule_periodic),
            (Broker, "register_service", traced_register_service,
             register_service),
            (Broker, "subscribe", traced_subscribe, subscribe),
            (Broker, "unsubscribe", traced_unsubscribe, unsubscribe),
        ):
            functools.update_wrapper(fn, original)
            del fn.__wrapped__
            self.patch(owner, name, fn)


def _plain(fn: Callable) -> bool:
    return not (
        inspect.isgeneratorfunction(fn)
        or inspect.iscoroutinefunction(fn)
        or inspect.isasyncgenfunction(fn)
    )


def _import_tree(package: str) -> None:
    module = importlib.import_module(package)
    for info in pkgutil.walk_packages(
        getattr(module, "__path__", []), prefix=package + "."
    ):
        importlib.import_module(info.name)
