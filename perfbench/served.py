"""The served-mix owner process: the owner, the store and the reactor.

The load generator runs the reader terminals and cards in the parent
process; the owner's community lives in this child, serves its DSP
through the reactor, and applies owner writes sent over a control socket.
The parent times each write from its side of the socket.  With tracing
on, the child times its own layers and returns, with every write
reply, the self time each of its layers spent on that write.

The child starts once per run, before the first set-up, and imports
the program and builds its corpus then, like the parent does for the
other workloads.  Each set-up asks it for a fresh owner world (a new
community, the corpus published, a new server); each teardown closes
that world and returns what the child measured.
"""

from __future__ import annotations

import resource
import socket
import subprocess
import sys
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Any

#: How long the parent waits for any reply before giving up.
REPLY_TIMEOUT_S = 60.0


def _receive(conn: Any) -> Any:
    if not conn.poll(REPLY_TIMEOUT_S):
        raise TimeoutError("the owner process did not answer")
    return conn.recv()


class OwnerProcess:
    """The parent's handle on the owner process."""

    def __init__(self, process: Any, conn: Any) -> None:
        self._process = process
        self._conn = conn

    @classmethod
    def start(cls, seed: int) -> "OwnerProcess":
        """Start ``python3 served.py <fd> <seed>`` on one end of a socket
        pair.  A plain subprocess, not ``multiprocessing``, so that no
        helper process (such as its resource tracker) outlives the run."""
        parent_sock, child_sock = socket.socketpair()
        try:
            process = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 str(child_sock.fileno()), str(seed)],
                pass_fds=(child_sock.fileno(),),
                stdin=subprocess.DEVNULL,
                stdout=sys.stderr.fileno(),
            )
        except BaseException:
            parent_sock.close()
            raise
        finally:
            child_sock.close()
        handle = cls(process, Connection(parent_sock.detach()))
        try:
            status, detail = _receive(handle._conn)
            if status != "started":
                raise RuntimeError(f"owner process failed to start: {detail}")
        except BaseException:
            handle.stop()
            raise
        return handle

    def call(self, message: tuple[Any, ...]) -> Any:
        """Send one message; an owner write answers (status, detail,
        the child's self time per span name)."""
        self._conn.send(message)
        return _receive(self._conn)

    def serve(self) -> tuple[str, int]:
        """Build a fresh owner world; returns its server's address."""
        status, address = self.call(("setup",))
        if status != "ready":
            raise RuntimeError(f"owner world failed to start: {address}")
        return tuple(address)

    def teardown(self) -> dict[str, Any]:
        """Close the owner world; returns what the child measured in it."""
        status, report = self.call(("teardown",))
        if status != "ok":
            raise RuntimeError(f"owner world failed to close: {report}")
        return report

    def stop(self) -> None:
        """Stop the child and wait for it."""
        try:
            if self._process.poll() is None:
                self.call(("stop",))
        except (OSError, EOFError, TimeoutError):
            pass  # the child is gone or stuck; it is killed below
        finally:
            self._conn.close()
            try:
                self._process.wait(10)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()


def _reactor_counters(server: Any) -> dict[str, int]:
    return {
        "requests": server.requests,
        "cache_hits": server.cache_hits,
        "rejected": server.rejected_requests,
    }


class _OwnerWorld:
    """One set-up's owner side: community, published corpus, server."""

    def __init__(self, events: dict[Any, Any], rules: list[Any]) -> None:
        from repro.community import Community

        from workloads import ServedMix

        self.community = Community()
        try:
            self.owner = self.community.enroll("owner")
            self.readers = [self.community.enroll(name) for name in ServedMix.MEMBERS]
            self.documents = {
                doc: self.owner.publish(
                    events[(doc, 0)], rules[0], to=self.readers, doc_id=ServedMix.doc_id(doc)
                )
                for doc in range(ServedMix.DOCS)
            }
            self.server = self.community.serve()
        except BaseException:
            self.community.close()
            raise
        self.tracer: Any = None
        self.marked = _reactor_counters(self.server)

    def report(self) -> dict[str, Any]:
        now = _reactor_counters(self.server)
        return {
            "reactor": {key: now[key] - self.marked[key] for key in now},
            "inclusive_s": self.tracer.inclusive_seconds() if self.tracer else {},
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()
        self.community.close()


def owner_main(conn: Any, seed: int) -> None:
    """The child's main loop: answer the control socket until told to stop."""
    try:
        from repro.xmlstream.tree import tree_to_events

        from tracer import NULL_SPAN, Tracer
        from workloads import ServedMix

        events = {
            key: list(tree_to_events(tree))
            for key, tree in ServedMix.corpus(seed).items()
        }
        rules = ServedMix.rule_sets()
    except Exception as exc:  # reported to the parent, which gives up
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
        return
    conn.send(("started", ""))
    world: _OwnerWorld | None = None
    try:
        while True:
            try:
                op = conn.recv()
            except EOFError:  # the parent is gone
                return
            kind = op[0]
            if kind == "setup":
                try:
                    world = _OwnerWorld(events, rules)
                except Exception as exc:  # reported to the parent, which gives up
                    conn.send(("error", f"{type(exc).__name__}: {exc}"))
                    continue
                conn.send(("ready", world.server.address))
                continue
            if kind == "teardown":
                assert world is not None
                report = world.report()
                world.close()
                world = None
                conn.send(("ok", report))
                continue
            if kind == "stop":
                conn.send(("ok", ""))
                return
            assert world is not None
            if kind == "mark":
                if op[1]:
                    world.tracer = Tracer()
                    world.tracer.install_owner()
                world.marked = _reactor_counters(world.server)
                conn.send(("ok", ""))
                continue
            tracer = world.tracer
            before = tracer.self_seconds(main_only=True) if tracer else {}
            try:
                with tracer.span("community") if tracer else NULL_SPAN:
                    document = world.documents[op[1]]
                    if kind == "republish":
                        _, doc, variant, rules_variant = op
                        world.owner.publish(
                            events[(doc, variant)],
                            rules[rules_variant],
                            to=world.readers,
                            doc_id=document.doc_id,
                        )
                    elif kind == "update_rules":
                        document.update_rules(rules[op[2]])
                    elif kind == "revoke":
                        document.revoke(op[2])
                    elif kind == "grant":
                        document.grant(op[2])
                    else:
                        raise ValueError(f"unknown owner op {kind!r}")
                status, detail = "ok", ""
            except Exception as exc:  # reported as a failed write
                status, detail = "error", f"{type(exc).__name__}: {exc}"
            spent: dict[str, float] = {}
            if tracer:
                after = tracer.self_seconds(main_only=True)
                spent = {
                    name: after[name] - before[name]
                    for name in after
                    if after[name] != before[name]
                }
            conn.send((status, detail, spent))
    finally:
        if world is not None:
            world.close()


if __name__ == "__main__":
    from run import bootstrap

    bootstrap()
    owner_connection = Connection(int(sys.argv[1]))
    try:
        owner_main(owner_connection, int(sys.argv[2]))
    finally:
        owner_connection.close()
