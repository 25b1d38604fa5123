"""Layer tracing from outside the program.

The benchmark attributes time to layers without touching ``src/``: it wraps
the public functions of each layer (the table in :data:`TARGETS`) with a span
recorder, runs a few *traced* replays after the timed ones, and restores the
originals afterwards.  A span is ``(name, start, end, parent, op id)``; a
layer's **self time** is the duration of its spans minus the part their child
spans cover, so the self times of all spans of one op add up to the op's
duration and a slow layer is named instead of being charged to its callers.

Span names are ``<layer>.<function>``; the layer (the module the function
lives in) is everything before the first dot.  Events executed by the
simulator's :class:`~repro.simulation.event_queue.EventQueue` are named after
their label (``maint-*`` -> ``maintenance.*``, ``churn-*`` -> ``churn.*``,
``op-*`` -> ``workload.*``), which is how background work is told apart from
the foreground path.

Tracing is thread-aware (each thread has its own span stack) because the UDP
transport decodes frames on its event-loop thread.
"""

from __future__ import annotations

import importlib
import json
import threading
from collections import defaultdict
from collections.abc import Callable
from time import perf_counter_ns
from typing import Any

__all__ = ["TARGETS", "Tracer", "layer_of"]

#: ``(module, class or None, attribute, span name)`` of every wrapped call.
#: Module-level functions imported by name elsewhere (``iterative_lookup``,
#: ``encode_frame``) are listed once per importing module.
TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    # service / protocol layer: one tag or insert.
    ("repro.distributed.protocol", "BaseDharmaProtocol", "add_tag", "service.add_tag"),
    ("repro.distributed.protocol", "BaseDharmaProtocol", "insert_resource",
     "service.insert_resource"),
    ("repro.distributed.search_client", "DistributedFacetedSearch", "run", "search_client.run"),
    # block store and its cache.
    *(
        ("repro.distributed.block_store", "BlockStore", method, f"block_store.{method}")
        for method in (
            "put_resource_uri", "get_resource_uri", "append_resource_tags",
            "get_resource_tags", "append_tag_resources", "get_tag_resources",
            "append_tag_neighbours", "get_tag_neighbours", "search_tag_neighbours",
            "search_tag_resources", "search_tag_blocks", "get_entries_many",
        )
    ),
    *(
        ("repro.distributed.block_cache", "BlockCache", method, f"block_cache.{method}")
        for method in ("get", "put", "invalidate_group", "clear")
    ),
    # PUT/GET/APPEND facade.
    *(
        ("repro.dht.api", "DHTClient", method, f"api.{method}")
        for method in (
            "put", "append", "get", "get_many", "get_counter_block", "get_entries",
            "get_entries_many",
        )
    ),
    *(
        ("repro.dht.batched_lookup", "BatchedLookupEngine", method, f"batched_lookup.{method}")
        for method in ("retrieve", "retrieve_many", "store", "append")
    ),
    # iterative lookup (imported by name into its two callers).
    ("repro.dht.lookup", None, "iterative_lookup", "lookup.iterative_lookup"),
    ("repro.dht.node", None, "iterative_lookup", "lookup.iterative_lookup"),
    ("repro.dht.batched_lookup", None, "iterative_lookup", "lookup.iterative_lookup"),
    *(
        ("repro.dht.node", "KademliaNode", method, f"node.{method}")
        for method in (
            "lookup_node", "lookup_value", "store", "append", "retrieve", "query",
            "store_at", "append_at", "ping", "join", "refresh_buckets", "unwrap_value",
        )
    ),
    *(
        ("repro.dht.routing_table", cls, method, f"routing_table.{method}")
        for cls in ("CompactRoutingTable", "RoutingTable")
        for method in ("closest_contacts", "record_contact", "evict", "least_recently_seen")
    ),
    *(
        ("repro.dht.storage", "LocalStorage", method, f"storage.{method}")
        for method in ("put", "get", "append", "delete", "items_snapshot")
    ),
    ("repro.dht.likir", "SignedValue", "create", "likir.create"),
    ("repro.dht.likir", "SignedValue", "verify", "likir.verify"),
    # transports and the wire codec.
    ("repro.net.simulated", "SimulatedTransport", "send", "network.send"),
    ("repro.net.udp", "UdpTransport", "send", "udp.send"),
    ("repro.net.udp", None, "encode_frame", "wire.encode_frame"),
    ("repro.net.udp", None, "decode_frame", "wire.decode_frame"),
    # the simulator's scheduler (``step`` is wrapped separately: its span is
    # named after the executed event's label).
    ("repro.simulation.event_queue", "EventQueue", "run_until", "event_queue.run_until"),
    ("repro.simulation.event_queue", "EventQueue", "schedule_at", "event_queue.schedule_at"),
    ("repro.simulation.event_queue", "Event", "cancel", "event_queue.cancel"),
)

#: Transports whose ``register`` is wrapped so the handler a node registers
#: (its server-side RPC dispatcher) runs inside a ``node.handle`` span.
_REGISTER_TARGETS = (
    ("repro.net.simulated", "SimulatedTransport"),
    ("repro.net.udp", "UdpTransport"),
)

#: Event-label prefix -> span-name prefix for ``EventQueue.step``.
_EVENT_LAYERS = (("maint-", "maintenance."), ("churn-", "churn."), ("op-", "workload."))


def layer_of(name: str) -> str:
    """``"block_store.get_entries_many"`` -> ``"block_store"``."""
    return name.partition(".")[0]


def _event_span_name(label: str) -> str:
    for prefix, layer in _EVENT_LAYERS:
        if label.startswith(prefix):
            kind = label[len(prefix):].partition(":")[0].rstrip("-0123456789") or "event"
            return layer + kind
    return "event_queue.event"


class Tracer:
    """Span recorder plus the monkey-patching that feeds it.

    :meth:`install` wraps every target; wrappers are pass-through until
    :attr:`enabled` is set, so set-up can run at full speed with the wrappers
    in place.  :meth:`uninstall` restores every original.
    """

    def __init__(self, keep_spans: bool = False) -> None:
        self.enabled = False
        #: Op id stamped on every span opened while it is set (-1 = no op).
        self.op_id = -1
        #: Optional zero-argument callable returning the overlay's running
        #: message total; with it, messages are attributed to event labels.
        self.message_counter: Callable[[], int] | None = None
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        #: Calls that entered a layer from another layer (nested calls within
        #: one layer are not counted twice).
        self.entries: dict[str, int] = defaultdict(int)
        self.messages: dict[str, int] = defaultdict(int)
        #: Span durations (ns) of the names listed in :attr:`sampled`.
        self.sampled: set[str] = {"udp.send"}
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.spans: list[tuple[str, int, int, int, int]] | None = [] if keep_spans else None
        self._local = threading.local()
        self._next_span = 0
        self._originals: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping --------------------------------------------------- #

    def _stack(self) -> list[list]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _enter(self, layer: str | None) -> list:
        stack = self._stack()
        self._next_span += 1
        # [start, child time, span id, layer]
        frame = [0, 0, self._next_span, layer]
        stack.append(frame)
        frame[0] = perf_counter_ns()
        return frame

    def _exit(self, frame: list, name: str) -> None:
        end = perf_counter_ns()
        stack = self._stack()
        stack.pop()
        duration = end - frame[0]
        self.self_ns[name] += duration - frame[1]
        self.calls[name] += 1
        layer = frame[3] or layer_of(name)
        parent_id = 0
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent_id = parent[2]
            if parent[3] != layer:
                self.entries[layer] += 1
        else:
            self.entries[layer] += 1
        if name in self.sampled:
            self.durations[name].append(duration)
        if self.spans is not None:
            self.spans.append((name, frame[0], end, parent_id, self.op_id))

    def reset(self) -> None:
        """Forget everything recorded so far (between traced replays)."""
        for table in (self.self_ns, self.calls, self.entries, self.messages, self.durations):
            table.clear()
        if self.spans is not None:
            self.spans.clear()

    def layer_self_ns(self) -> dict[str, int]:
        """Self time per layer (sum over the layer's span names)."""
        out: dict[str, int] = defaultdict(int)
        for name, value in self.self_ns.items():
            out[layer_of(name)] += value
        return dict(out)

    def write_spans(self, path: str) -> int:
        """Write the retained spans as JSON lines; returns how many."""
        spans = self.spans or []
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op}
                    )
                )
                handle.write("\n")
        return len(spans)

    # -- wrappers ------------------------------------------------------------ #

    def _wrap(self, func: Callable, name: str, on_result: Callable | None = None) -> Callable:
        layer = layer_of(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            frame = tracer._enter(layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(frame, name)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = func
        return traced

    def _wrap_step(self, step: Callable) -> Callable:
        tracer = self

        def traced_step(queue):
            if not tracer.enabled:
                return step(queue)
            counter = tracer.message_counter
            before = counter() if counter is not None else 0
            frame = tracer._enter(None)
            event = None
            try:
                event = step(queue)
                return event
            finally:
                name = _event_span_name(event.label) if event is not None else "event_queue.event"
                frame[3] = layer_of(name)
                tracer._exit(frame, name)
                if counter is not None:
                    tracer.messages[layer_of(name)] += counter() - before

        traced_step.__wrapped__ = step
        return traced_step

    def _wrap_register(self, register: Callable) -> Callable:
        tracer = self

        def traced_register(transport, address, handler):
            return register(transport, address, tracer._wrap(handler, "node.handle"))

        traced_register.__wrapped__ = register
        return traced_register

    # -- install / uninstall -------------------------------------------------- #

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._originals.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self, result_hooks: dict[str, Callable[[Any], None]] | None = None) -> None:
        """Wrap every target.

        *result_hooks* maps a span name to a callable that receives each
        return value of the wrapped function (outside the span), for counts
        only the result carries (a lookup's RPC and failure totals).
        """
        hooks = result_hooks or {}
        for module_name, class_name, attribute, name in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                replacement: Any = classmethod(
                    self._wrap(original.__func__, name, hooks.get(name))
                )
            else:
                replacement = self._wrap(original, name, hooks.get(name))
            self._patch(owner, attribute, replacement)
        queue_module = importlib.import_module("repro.simulation.event_queue")
        queue_class = queue_module.EventQueue
        self._patch(queue_class, "step", self._wrap_step(queue_class.__dict__["step"]))
        for module_name, class_name in _REGISTER_TARGETS:
            owner = getattr(importlib.import_module(module_name), class_name)
            self._patch(owner, "register", self._wrap_register(owner.__dict__["register"]))

    def uninstall(self) -> None:
        """Restore every original, last patch first."""
        self.enabled = False
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)
