"""Spans around the calls into each layer, and the ledger built from them.

The wrappers live here, in the benchmark, not in ``src/``: installing a
:class:`Tracer` replaces each layer's public entry points (class
methods, or module functions at the place their caller looks them up)
with timing wrappers, and uninstalling restores the originals.  Each
span records its name, start, end, parent span and op id; spans stay in
memory and are written out when the run ends.

A layer's self time is its spans' duration minus the time their child
spans cover.  Every span nests inside the op that caused it, so the
self times of all layers add up to the traced op time; what the
benchmark's op timer saw outside any span is the ``unattributed`` row.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from array import array
from typing import Any, Callable, Iterator

#: Span name -> the layer it is booked to in the ledger.  Names are
#: ``<layer>.<call>`` where a layer has more than one timed call.
SPAN_LAYER = {
    "community": "community",
    "cache": "cache",
    "terminal": "terminal",
    "dsp": "dsp",
    "wire": "wire",
    "store.read": "store",
    "store.write": "store",
    "smartcard": "smartcard",
    "crypto.open": "crypto",
    "crypto.seal": "crypto",
    "skipindex.decode": "skipindex",
    "skipindex.encode": "skipindex",
    "core.feed": "core",
    "xmlstream.emit": "xmlstream",
    "feeds.publish": "feeds",
    "feeds.broadcast": "feeds",
    "control": "control",
}
NAMES = list(SPAN_LAYER)
LAYERS = list(dict.fromkeys(SPAN_LAYER.values()))
_ID = {name: index for index, name in enumerate(NAMES)}

#: Largest share of the traced op time the ledger may leave
#: unattributed (or over-attribute) before the traced run fails.
LEDGER_TOLERANCE = 0.05


class _ThreadState:
    """One thread's span stack and tallies (no cross-thread sharing)."""

    __slots__ = ("stack", "self_s", "incl_s", "calls", "depth", "rows")

    def __init__(self) -> None:
        n = len(NAMES)
        self.stack: list[list[float]] = []
        self.self_s = [0.0] * n
        self.incl_s = [0.0] * n
        self.calls = [0] * n
        self.depth = [0] * n
        #: Flattened span rows: id, name, start, end, parent, op.
        self.rows = array("d")


class Tracer:
    """Records spans at layer boundaries while installed."""

    def __init__(self) -> None:
        self.op_id = -1
        self.counts: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._threads_lock = threading.Lock()
        self._patched: list[tuple[Any, str, Any]] = []
        #: Self time booked from another process (the served owner's
        #: side of a write), nested inside this process's ``control``
        #: spans.
        self.remote_self = [0.0] * len(NAMES)

    # -- span recording ---------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._threads_lock:
                self._threads.append(state)
        return state

    def _enter(self, nid: int) -> tuple[_ThreadState, int, list[float]]:
        state = self._state()
        frame = [0.0, float(next(self._ids)), time.perf_counter()]
        state.depth[nid] += 1
        state.stack.append(frame)
        return state, nid, frame

    def _exit(self, token: tuple[_ThreadState, int, list[float]]) -> None:
        end = time.perf_counter()
        state, nid, frame = token
        stack = state.stack
        stack.pop()
        start = frame[2]
        duration = end - start
        state.self_s[nid] += duration - frame[0]
        state.depth[nid] -= 1
        if not state.depth[nid]:
            state.incl_s[nid] += duration
        state.calls[nid] += 1
        if stack:
            parent = stack[-1]
            parent[0] += duration
            parent_id = parent[1]
        else:
            parent_id = -1.0
        state.rows.extend((frame[1], nid, start, end, parent_id, self.op_id))

    def span(self, name: str) -> "_Span":
        """A context manager timing one span (for the benchmark's ops)."""
        return _Span(self, _ID[name])

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        nid = _ID[name]
        enter = self._enter
        leave = self._exit

        def traced(*args: Any, **kwargs: Any) -> Any:
            token = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(token)

        return traced

    def wrap_generator(
        self, name: str, fn: Callable[..., Iterator[Any]]
    ) -> Callable[..., Iterator[Any]]:
        """Time every resumption of the generators ``fn`` returns."""
        nid = _ID[name]
        enter = self._enter
        leave = self._exit

        def resumed(gen: Iterator[Any]) -> Iterator[Any]:
            try:
                while True:
                    token = enter(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        leave(token)
                    yield item
            finally:
                close = getattr(gen, "close", None)
                if close is not None:
                    close()

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            return resumed(fn(*args, **kwargs))

        return traced

    def counting(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -----------------------------------------------------

    def patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install_reader(self) -> None:
        """Wrap the layers a pulling, subscribing or publishing
        process calls into."""
        import repro.dsp.remote as remote
        import repro.feeds.feed as feed_module
        import repro.smartcard.applet as applet
        from repro.cache.viewcache import ViewCache
        from repro.core.pipeline import AccessController
        from repro.core.product import ProductEngine
        from repro.core.runtime import TokenEngine
        from repro.dsp.remote import RemoteDSP
        from repro.dsp.server import DSPServer
        from repro.feeds.feed import Feed
        from repro.skipindex.decoder import SXSDecoder
        from repro.smartcard.card import SmartCard
        from repro.community.session import Session
        from repro.terminal.proxy import CardProxy

        self.install_owner()
        for method in ("lookup", "record"):
            self.patch(ViewCache, method, self.wrap("cache", ViewCache.__dict__[method]))
        self.patch(
            CardProxy,
            "stream_query",
            self.wrap_generator("terminal", CardProxy.__dict__["stream_query"]),
        )
        # Opening a session unlocks the document on the member's
        # terminal (wrapped-key fetch, unwrap, card provisioning).
        self.patch(Session, "__init__", self.wrap("terminal", Session.__dict__["__init__"]))
        for cls in (DSPServer, RemoteDSP):
            for method in (
                "get_header",
                "get_chunk",
                "get_chunk_range",
                "get_rules",
                "get_wrapped_key",
                "get_meta",
            ):
                self.patch(cls, method, self.wrap("dsp", cls.__dict__[method]))
        for function in ("encode_request", "decode_response"):
            self.patch(remote, function, self.wrap("wire", remote.__dict__[function]))
        self.patch(SmartCard, "process", self.wrap("smartcard", SmartCard.__dict__["process"]))
        self.patch(applet, "open_chunk", self.wrap("crypto.open", applet.open_chunk))
        self.patch(applet, "write_string", self.wrap("xmlstream.emit", applet.write_string))
        for method in ("push", "next_item"):
            self.patch(
                SXSDecoder, method, self.wrap("skipindex.decode", SXSDecoder.__dict__[method])
            )
        self.patch(
            AccessController, "feed", self.wrap("core.feed", AccessController.__dict__["feed"])
        )
        for method in ("publish", "broadcast"):
            self.patch(Feed, method, self.wrap(f"feeds.{method}", Feed.__dict__[method]))
        self.patch(
            feed_module, "seal_document", self.wrap("crypto.seal", feed_module.seal_document)
        )
        for engine, key in ((TokenEngine, "token_engines"), (ProductEngine, "product_engines")):
            self.patch(engine, "__init__", self.counting(key, engine.__dict__["__init__"]))

    def install_owner(self) -> None:
        """Wrap the layers an owner process calls into (publish side and
        the store)."""
        import repro.terminal.api as api
        from repro.dsp.store import DSPStore

        self.patch(DSPStore, "get", self.wrap("store.read", DSPStore.__dict__["get"]))
        for method in ("put_document", "put_rules", "put_wrapped_key", "remove_wrapped_key"):
            self.patch(DSPStore, method, self.wrap("store.write", DSPStore.__dict__[method]))
        self.patch(api, "encode_document", self.wrap("skipindex.encode", api.encode_document))
        self.patch(api, "seal_document", self.wrap("crypto.seal", api.seal_document))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- results ----------------------------------------------------------

    def _sum(self, slot: str) -> list[float]:
        totals = [0.0] * len(NAMES)
        with self._threads_lock:
            states = list(self._threads)
        for state in states:
            for index, value in enumerate(getattr(state, slot)):
                totals[index] += value
        return totals

    def self_seconds(self, *, main_only: bool = False) -> dict[str, float]:
        """Self time per span name (this thread only with ``main_only``)."""
        if main_only:
            values = list(self._state().self_s)
        else:
            values = self._sum("self_s")
        return dict(zip(NAMES, values))

    def inclusive_seconds(self) -> dict[str, float]:
        return dict(zip(NAMES, self._sum("incl_s")))

    def calls(self) -> dict[str, int]:
        return {name: int(value) for name, value in zip(NAMES, self._sum("calls"))}

    def absorb_remote(self, self_seconds: dict[str, float]) -> None:
        """Book another process's self times, nested in ``control``."""
        for name, seconds in self_seconds.items():
            self.remote_self[_ID[name]] += seconds

    def ledger(self, op_seconds: float) -> dict[str, float]:
        """Self seconds per layer, plus the ``unattributed`` remainder."""
        local = self._sum("self_s")
        remote_total = sum(self.remote_self)
        rows = {layer: 0.0 for layer in LAYERS}
        for index, name in enumerate(NAMES):
            rows[SPAN_LAYER[name]] += local[index] + self.remote_self[index]
        rows["control"] -= remote_total
        rows["unattributed"] = op_seconds - sum(rows.values())
        return rows

    def span_count(self) -> int:
        return sum(len(state.rows) // 6 for state in self._threads)

    def write(self, path: str) -> None:
        """Write every recorded span as JSON columns, one at a time."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"names": ' + json.dumps(NAMES))
            for offset, key in enumerate(("id", "name", "start", "end", "parent", "op")):
                column = array("d")
                for state in self._threads:
                    column.extend(state.rows[offset::6])
                handle.write(f', "{key}": ' + json.dumps(column.tolist()))
            handle.write("}")


class _Span:
    __slots__ = ("_tracer", "_nid", "_token")

    def __init__(self, tracer: Tracer, nid: int) -> None:
        self._tracer = tracer
        self._nid = nid

    def __enter__(self) -> None:
        self._token = self._tracer._enter(self._nid)

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._exit(self._token)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


NULL_SPAN = _NullSpan()
