"""The DSP as a real network service.

:class:`DSPSocketServer` fronts one in-process
:class:`~repro.dsp.server.DSPServer` with a threaded TCP listener
speaking the :mod:`repro.dsp.wire` codec -- one thread per connection,
dispatch serialized on the server so its accounting (``requests``,
``bytes_served``, the SimClock) stays coherent, and per-connection
accounting so an operator can see who pulled what.

:class:`RemoteDSP` is the matching :class:`~repro.dsp.client.DSPClient`:
it connects, sends one frame per request and decodes the response,
re-raising the server's typed errors.  Many terminals in separate
processes can each hold one and pull from the same durable DSP
concurrently.

Typical wiring (``Community.serve`` does the serving side)::

    # process A -- owns the store
    server = DSPSocketServer(dsp)          # 127.0.0.1, ephemeral port
    print(server.address)

    # process B..N -- readers
    with RemoteDSP.connect(address) as dsp:
        readers = Community.attach(dsp)
        reader = readers.enroll("reader")
        doc = readers.adopt(doc_id, owner="owner")
        with reader.open(doc) as session:
            view = session.query().text()
"""

from __future__ import annotations

import random
import socket
import struct
import threading
import time
from dataclasses import dataclass
from types import TracebackType
from typing import Callable, Protocol

from repro.crypto.container import DocumentHeader
from repro.dsp.server import DSPServer
from repro.dsp.wire import (
    MAX_FRAME,
    DocMeta,
    GetChunk,
    GetChunkRange,
    GetHeader,
    GetMeta,
    GetRules,
    GetWrappedKey,
    Request,
    WireError,
    decode_request,
    decode_response,
    encode_error,
    encode_request,
    encode_response,
    frame,
)
from repro.errors import ResourceExhausted, TransportError
from repro.smartcard.resources import SimClock

__all__ = [
    "ConnectionStats",
    "DSPSocketServer",
    "GenerationChanged",
    "RemoteDSP",
    "RetryPolicy",
    "SocketLike",
]

_U32 = struct.Struct(">I")


class SocketLike(Protocol):
    """The slice of the socket surface the DSP client actually uses.

    ``socket.socket`` satisfies it structurally; so does a chaos
    wrapper (``repro.chaos.faults.FaultySocket``) injected through
    ``RemoteDSP.connect(..., socket_wrapper=...)``.
    """

    def sendall(self, data: bytes, /) -> None: ...

    def recv(self, bufsize: int, /) -> bytes: ...

    def settimeout(self, value: float | None, /) -> None: ...

    def close(self) -> None: ...


def _recv_exact(sock: SocketLike, count: int) -> bytes | None:
    """``count`` bytes from the socket, or ``None`` on a clean EOF.

    A connection that dies mid-message raises
    :class:`~repro.errors.TransportError`; only an EOF on a message
    boundary reads as an orderly close.
    """
    parts: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            if remaining == count:
                return None
            raise TransportError("DSP connection closed mid-frame")
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def read_frame(sock: SocketLike) -> bytes | None:
    """One length-prefixed frame body, or ``None`` on orderly EOF."""
    prefix = _recv_exact(sock, 4)
    if prefix is None:
        return None
    length: int = _U32.unpack(prefix)[0]
    if length > MAX_FRAME:
        raise WireError(f"peer announced an oversized frame ({length} B)")
    body = _recv_exact(sock, length)
    if body is None:
        raise TransportError("DSP connection closed mid-frame")
    return body


def write_frame(sock: SocketLike, body: bytes) -> None:
    sock.sendall(frame(body))


class GenerationChanged(TransportError):
    """A retried pull crossed a republish: the document moved versions.

    Raised (instead of silently resuming) when a reconnect-and-resume
    discovers the stored document's version is no longer the one the
    in-flight pull started under.  Splicing chunks from two versions
    would be caught by the card's chunk MACs anyway -- this surfaces
    the situation *before* tainted bytes reach the card, so the caller
    can simply restart the pull against the new version.  Never
    retried.
    """


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded retry with exponential backoff + jitter for ``RemoteDSP``.

    ``attempts`` caps total tries per request (first try included).
    The ``n``-th retry sleeps ``backoff * multiplier**n``, shrunk by up
    to ``jitter`` (a 0..1 fraction) so a fleet of readers retrying the
    same hiccup does not stampede in phase; ``seed`` makes the jitter
    deterministic for tests.  ``deadline`` bounds the *whole* request
    -- connect, retries and socket waits included -- and overruns
    surface as :class:`~repro.errors.TransportError`, never a silent
    hang.

    What retries: transport failures (the client reconnects first) and
    :class:`~repro.errors.ResourceExhausted` rejection frames (the
    admission-control 429 -- backoff only, the connection is fine).
    What never retries: every other typed error
    (``UnknownDocument``, ``KeyNotGranted``, ...) -- those are
    answers, not failures -- and :class:`GenerationChanged`.
    """

    attempts: int = 4
    backoff: float = 0.02
    multiplier: float = 2.0
    jitter: float = 0.5
    deadline: float | None = 10.0
    seed: int | None = None

    def delay(self, retry_index: int) -> float:
        """Sleep before the ``retry_index``-th retry (zero-based)."""
        base = self.backoff * (self.multiplier ** retry_index)
        if self.jitter <= 0:
            return base
        if self.seed is None:
            fraction = random.random()
        else:
            fraction = random.Random(f"retry|{self.seed}|{retry_index}").random()
        return base * (1.0 - self.jitter * fraction)


@dataclass(slots=True)
class ConnectionStats:
    """Per-connection accounting on the served side."""

    peer: str
    requests: int = 0
    errors: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    open: bool = True


class DSPSocketServer:
    """Serves one DSP over TCP, one thread per connection.

    Binding ``port=0`` picks an ephemeral port; :attr:`address` is the
    bound ``(host, port)`` to hand to clients.  Dispatch into the
    underlying :class:`DSPServer` is serialized on one lock so its
    request/byte/clock accounting stays exactly as coherent as in the
    single-process deployment.  A context manager: ``close`` stops the
    listener and tears down every live connection.
    """

    def __init__(
        self,
        dsp: DSPServer,
        host: str = "127.0.0.1",
        port: int = 0,
        backlog: int = 16,
        *,
        idle_timeout: float | None = None,
    ) -> None:
        self.dsp = dsp
        #: Seconds a connection may sit with no inbound traffic before
        #: its thread reaps it -- an abandoned socket no longer pins a
        #: thread forever.  ``None`` keeps the historical wait-forever.
        self.idle_timeout = idle_timeout
        self.reaped_connections = 0
        self._dispatch_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._listener = socket.create_server((host, port), backlog=backlog)
        bound = self._listener.getsockname()
        self.address: tuple[str, int] = (str(bound[0]), int(bound[1]))
        self.connections: list[ConnectionStats] = []
        self._conn_socks: list[socket.socket] = []
        self._closed = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"dsp-server-{self.address[1]}",
            daemon=True,
        )
        self._accept_thread.start()

    # -- service loop -----------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, peer = self._listener.accept()
            except OSError:
                return  # listener closed
            stats = ConnectionStats(peer=f"{peer[0]}:{peer[1]}")
            with self._state_lock:
                if self._closed:
                    conn.close()
                    return
                self.connections.append(stats)
                self._conn_socks.append(conn)
            threading.Thread(
                target=self._serve_connection,
                args=(conn, stats),
                name=f"dsp-conn-{stats.peer}",
                daemon=True,
            ).start()

    def _serve_connection(
        self, conn: socket.socket, stats: ConnectionStats
    ) -> None:
        if self.idle_timeout is not None:
            conn.settimeout(self.idle_timeout)
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        try:
            while True:
                try:
                    body = read_frame(conn)
                except TimeoutError:
                    # Idle (or mid-frame stalled) past the deadline:
                    # reap the connection instead of pinning the
                    # thread forever.
                    self.reaped_connections += 1
                    return
                except (TransportError, WireError, OSError):
                    return
                if body is None:
                    return
                stats.requests += 1
                stats.bytes_in += 4 + len(body)
                response = self._dispatch(body, stats)
                stats.bytes_out += 4 + len(response)
                try:
                    write_frame(conn, response)
                except OSError:
                    return
        finally:
            stats.open = False
            conn.close()

    def _dispatch(self, body: bytes, stats: ConnectionStats) -> bytes:
        try:
            request = decode_request(body)
        except WireError as exc:
            stats.errors += 1
            return encode_error(exc)
        try:
            with self._dispatch_lock:
                value = self._execute(request)
            return encode_response(request, value)
        except Exception as exc:  # typed errors travel; nothing escapes
            stats.errors += 1
            return encode_error(exc)

    def _execute(self, request: Request) -> object:
        dsp = self.dsp
        if isinstance(request, GetHeader):
            return dsp.get_header(request.doc_id)
        if isinstance(request, GetChunk):
            return dsp.get_chunk(request.doc_id, request.index)
        if isinstance(request, GetChunkRange):
            return dsp.get_chunk_range(
                request.doc_id, request.start, request.count
            )
        if isinstance(request, GetRules):
            return dsp.get_rules(request.doc_id)
        if isinstance(request, GetMeta):
            return dsp.get_meta(request.doc_id, request.subject)
        return dsp.get_wrapped_key(request.doc_id, request.recipient)

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Stop accepting and tear down live connections (idempotent)."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            socks = list(self._conn_socks)
        try:
            # close() alone does not wake a thread blocked in accept();
            # shutdown() does.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        self._accept_thread.join(timeout=5)

    def __enter__(self) -> "DSPSocketServer":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


class RemoteDSP:
    """A :class:`~repro.dsp.client.DSPClient` over one TCP connection.

    One frame out, one frame in, per request; a lock serializes
    requests so one handle may be shared, though the intended shape is
    one ``RemoteDSP`` per terminal process.  Wire-carried typed errors
    re-raise exactly as the in-process server would have raised them.
    The ``clock`` is this client's own
    :class:`~repro.smartcard.resources.SimClock`: the *served* DSP
    charges its network model on its side, while the terminal charges
    card/link time locally.

    Without a :class:`RetryPolicy` the handle keeps its historical
    fail-fast shape: the first transport failure poisons it for good.
    With one (``RemoteDSP.connect(..., retry=RetryPolicy())``) it
    self-heals: transport failures reconnect and retry with
    exponential backoff + jitter, admission-control
    :class:`~repro.errors.ResourceExhausted` rejections back off on
    the live connection, and a per-request ``deadline`` bounds the
    whole affair as a :class:`~repro.errors.TransportError`.  Resumed
    chunk pulls are guarded by the header's version: if the document
    was republished while the pull was down, the retry raises
    :class:`GenerationChanged` rather than splice two versions.
    """

    def __init__(
        self,
        sock: SocketLike,
        clock: SimClock | None = None,
        *,
        retry: RetryPolicy | None = None,
        address: tuple[str, int] | None = None,
        timeout: float | None = None,
        socket_wrapper: "Callable[[socket.socket], SocketLike] | None" = None,
    ) -> None:
        self._sock = sock
        self._lock = threading.Lock()
        self._broken: str | None = None
        self.retry = retry
        self._address = address
        self._timeout = timeout
        self._wrap = socket_wrapper
        #: Document versions observed via ``get_header`` on this handle
        #: -- the reconnect-and-resume guard's memory.
        self._doc_versions: dict[str, int] = {}
        self.clock = clock if clock is not None else SimClock()
        self.requests = 0
        self.bytes_received = 0
        self.retries = 0
        self.reconnects = 0

    @classmethod
    def connect(
        cls,
        address: tuple[str, int],
        timeout: float | None = 10.0,
        clock: SimClock | None = None,
        *,
        retry: RetryPolicy | None = None,
        socket_wrapper: "Callable[[socket.socket], SocketLike] | None" = None,
    ) -> "RemoteDSP":
        """Open a connection to a served DSP.

        ``retry`` turns on the resilience layer (see the class doc).
        ``socket_wrapper`` interposes on every socket the handle ever
        opens -- the initial connection *and* each reconnect -- which
        is how the chaos engine injects transport faults under a
        self-healing client.
        """
        sock = cls._open(address, timeout, socket_wrapper)
        return cls(
            sock,
            clock=clock,
            retry=retry,
            address=address,
            timeout=timeout,
            socket_wrapper=socket_wrapper,
        )

    @staticmethod
    def _open(
        address: tuple[str, int],
        timeout: float | None,
        wrap: "Callable[[socket.socket], SocketLike] | None",
    ) -> SocketLike:
        try:
            sock = socket.create_connection(address, timeout=timeout)
        except OSError as exc:
            raise TransportError(
                f"cannot reach DSP at {address[0]}:{address[1]}: {exc}"
            ) from exc
        sock.settimeout(timeout)
        return sock if wrap is None else wrap(sock)

    def _poison(self, reason: str) -> None:
        """Mark the connection unusable and drop the socket.

        After a timeout or mid-frame failure the stream may still hold
        a stale response; reading it would silently answer the *next*
        request with the previous payload, so the handle refuses all
        further use instead.  With a retry policy, ``_call`` reconnects
        a fresh socket before the next attempt.
        """
        self._broken = reason
        self._sock.close()

    def _reconnect(self, request: Request) -> None:
        """Replace the poisoned socket and re-validate the pull's world."""
        if self._address is None:
            raise TransportError(
                f"DSP connection is unusable ({self._broken}) and this "
                "handle has no address to reconnect to"
            )
        fresh = self._open(self._address, self._timeout, self._wrap)
        with self._lock:
            self._sock.close()
            self._sock = fresh
            self._broken = None
        self.reconnects += 1
        self._guard_generation(request)

    def _guard_generation(self, request: Request) -> None:
        """Refuse to resume a chunk pull across a republish.

        Chunk MACs bind ``(doc_id, version, index)``, so a splice of
        two versions would die at the card as ``TamperDetected``; this
        check turns it into an actionable :class:`GenerationChanged`
        before any tainted byte is fetched.
        """
        if not isinstance(request, (GetChunk, GetChunkRange)):
            return
        known = self._doc_versions.get(request.doc_id)
        if known is None:
            return
        header = self._exchange(GetHeader(request.doc_id))
        assert isinstance(header, DocumentHeader)
        if header.version != known:
            raise GenerationChanged(
                f"document {request.doc_id!r} moved from version {known} "
                f"to {header.version} while the pull was interrupted; "
                "restart the pull against the new version",
                doc_id=request.doc_id,
            )

    def _exchange(
        self, request: Request, deadline: float | None = None
    ) -> object:
        with self._lock:
            if self._broken is not None:
                raise TransportError(
                    f"DSP connection is unusable ({self._broken}); "
                    "reconnect with RemoteDSP.connect"
                )
            if deadline is not None:
                budget = deadline - time.monotonic()
                if budget <= 0:
                    raise TransportError(
                        "request deadline exhausted before the request "
                        "could be sent"
                    )
                limit = (
                    budget
                    if self._timeout is None
                    else min(self._timeout, budget)
                )
                try:
                    self._sock.settimeout(max(0.001, limit))
                except OSError:
                    pass
            try:
                write_frame(self._sock, encode_request(request))
                body = read_frame(self._sock)
            except (OSError, TransportError, WireError) as exc:
                self._poison(str(exc))
                raise TransportError(
                    f"DSP connection failed: {exc}"
                ) from exc
            self.requests += 1
            if body is None:
                self._poison("server closed the connection")
                raise TransportError("DSP closed the connection")
            self.bytes_received += len(body)
            try:
                value = decode_response(request, body)
            except WireError as exc:
                # An undecodable response means the stream can no
                # longer be trusted to be frame-aligned.
                self._poison(f"undecodable response: {exc}")
                raise TransportError(
                    f"DSP sent an undecodable response: {exc}"
                ) from exc
        if isinstance(request, GetHeader) and isinstance(value, DocumentHeader):
            self._doc_versions[request.doc_id] = value.version
        return value

    def _call(self, request: Request) -> object:
        policy = self.retry
        if policy is None:
            return self._exchange(request)
        deadline = (
            None
            if policy.deadline is None
            else time.monotonic() + policy.deadline
        )
        attempt = 0
        while True:
            try:
                if self._broken is not None:
                    self._reconnect(request)
                return self._exchange(request, deadline)
            except GenerationChanged:
                raise
            except (TransportError, ResourceExhausted) as exc:
                attempt += 1
                if attempt >= policy.attempts:
                    raise
                delay = policy.delay(attempt - 1)
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TransportError(
                            f"deadline of {policy.deadline:g}s exceeded "
                            f"after {attempt} attempts: {exc}"
                        ) from exc
                    delay = min(delay, remaining)
                if delay > 0:
                    time.sleep(delay)
                self.retries += 1

    # -- DSPClient --------------------------------------------------------

    def get_header(self, doc_id: str) -> DocumentHeader:
        value = self._call(GetHeader(doc_id))
        assert isinstance(value, DocumentHeader)
        return value

    def get_chunk(self, doc_id: str, index: int) -> bytes:
        value = self._call(GetChunk(doc_id, index))
        assert isinstance(value, bytes)
        return value

    def get_chunk_range(
        self, doc_id: str, start: int, count: int
    ) -> list[bytes]:
        value = self._call(GetChunkRange(doc_id, start, count))
        assert isinstance(value, list)
        return value

    def get_rules(self, doc_id: str) -> tuple[int, list[bytes]]:
        value = self._call(GetRules(doc_id))
        assert isinstance(value, tuple)
        return value

    def get_wrapped_key(self, doc_id: str, recipient: str) -> bytes:
        value = self._call(GetWrappedKey(doc_id, recipient))
        assert isinstance(value, bytes)
        return value

    def get_meta(self, doc_id: str, subject: str) -> DocMeta:
        value = self._call(GetMeta(doc_id, subject))
        assert isinstance(value, DocMeta)
        return value

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "RemoteDSP":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()
