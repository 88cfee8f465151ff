"""The benchmark's three workloads, driven through ``repro.community``.

Each workload builds its inputs from the seed (documents, reference
views, an endless op stream), sets up a world, and runs one op at a
time.  An op times only what a member or owner waits for; the
correctness gate runs after the op's clock has stopped.  All three are
closed loops with one caller: the next op starts when the last one has
returned.

* ``card-pull`` -- hospital pulls through an in-process DSP, cache
  off: nearly all the work is the card pipeline.
* ``served-mix`` -- the collaborative agenda served by the reactor in
  a child process, read through one ``RemoteDSP`` with the view cache
  on, with owner writes mixed in.
* ``feed-video`` -- parental-control video dissemination through a
  tiered ``Feed``, one publish plus one broadcast cycle per delivery.
"""

from __future__ import annotations

import bisect
import math
import random
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.community import Community, TierSpec
from repro.core.nfa import compile_call_count
from repro.core.reference import reference_view
from repro.core.rules import RuleSet, Subject
from repro.crypto.groupkey import wrap_call_count
from repro.errors import KeyNotGranted
from repro.feeds import compose_rules
from repro.smartcard.resources import SessionMetrics
from repro.terminal.transfer import TransferPolicy
from repro.workloads.docgen import agenda, hospital, video_catalog
from repro.workloads.rulegen import agenda_rules, hospital_rules, owner_private_rules
from repro.xmlstream.events import Event
from repro.xmlstream.tree import Element, tree_to_events
from repro.xmlstream.writer import write_string

from gate import Gate
from tracer import NULL_SPAN, Tracer

#: The chunk transport every pull uses: prefetch 8, batch 8.
WINDOW = TransferPolicy.windowed(8)


def _document(tree: Element) -> tuple[list[Event], int]:
    """The document's events and its plaintext XML size in bytes."""
    events = list(tree_to_events(tree))
    return events, len(write_string(events).encode("utf-8"))


def _expected(
    tree: Element,
    rules: RuleSet,
    subject: "Subject | str",
    query: str | None = None,
) -> str:
    return write_string(reference_view(tree, rules, subject, query=query))


#: Most values a :class:`Sample` keeps; past it, a uniform random subset.
SAMPLE_CAPACITY = 4096


class Sample:
    """Count, sum and a bounded uniform sample of a run of values.

    Its memory is fixed when it is made: past ``SAMPLE_CAPACITY``
    values each new one replaces a kept one with the probability of
    reservoir sampling.  The benchmark's own records therefore do not
    grow with the number of ops, and a faster program does not raise
    ``rss_mb`` by completing more of them.
    """

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self._kept = array("d", bytes(8 * SAMPLE_CAPACITY))
        self._rng = random.Random(0)

    def add(self, value: float) -> None:
        if self.count < SAMPLE_CAPACITY:
            self._kept[self.count] = value
        else:
            slot = self._rng.randrange(self.count + 1)
            if slot < SAMPLE_CAPACITY:
                self._kept[slot] = value
        self.count += 1
        self.total += value

    def values(self) -> list[float]:
        return self._kept[: min(self.count, SAMPLE_CAPACITY)].tolist()


class Window:
    """What one time window of the measured phase saw."""

    def __init__(self) -> None:
        self.ops = 0
        #: Seconds of every view a member waited for: a pull, or a feed
        #: delivery.
        self.views = Sample()
        #: Plaintext bytes of the documents behind those views.
        self.view_bytes = 0
        #: Seconds of every calibration sample.
        self.calibration = Sample()


class Tally:
    """What a run of ops saw, in fixed-size records.

    ``seconds`` and ``windows`` cut a measured phase into equal time
    windows (the last one also holds the op that overran the end);
    without ``seconds`` there is one window.  ``keep_op_times`` keeps
    every op's seconds in order, for a traced run's overhead replay.
    """

    def __init__(
        self, seconds: float | None = None, windows: int = 1, keep_op_times: bool = False
    ) -> None:
        #: ``time.perf_counter()`` when the run started.
        self.origin = time.perf_counter()
        self.width = seconds / windows if seconds else math.inf
        self.windows = [Window() for _ in range(windows)]
        self.ops = 0
        self.failed = 0
        self.op_seconds = 0.0
        self.op_times = array("d") if keep_op_times else None
        #: Seconds per op, by op kind.
        self.kinds: dict[str, Sample] = {}
        self.bytes_from_dsp = 0
        self.bytes_decrypted = 0
        self.bytes_skipped = 0
        self.chunks_sent = 0
        self.chunks_wasted = 0
        self.publishes = 0
        self.publish_wraps = 0

    def window(self) -> Window:
        """The window the present moment falls in."""
        index = int((time.perf_counter() - self.origin) / self.width)
        return self.windows[min(index, len(self.windows) - 1)]

    def op(self, kind: str, seconds: float, ok: bool) -> None:
        sample = self.kinds.get(kind)
        if sample is None:
            sample = self.kinds[kind] = Sample()
        sample.add(seconds)
        self.window().ops += 1
        self.ops += 1
        self.op_seconds += seconds
        if self.op_times is not None:
            self.op_times.append(seconds)
        if not ok:
            self.failed += 1

    def view(self, seconds: float, nbytes: int) -> None:
        window = self.window()
        window.views.add(seconds)
        window.view_bytes += nbytes

    def session(self, metrics: SessionMetrics) -> None:
        self.bytes_from_dsp += metrics.bytes_from_dsp
        self.bytes_decrypted += metrics.bytes_decrypted
        self.bytes_skipped += metrics.bytes_skipped
        self.chunks_sent += metrics.chunks_sent
        self.chunks_wasted += metrics.chunks_wasted


def _zipf_picker(count: int, exponent: float) -> Callable[[random.Random], int]:
    cumulative = []
    total = 0.0
    for rank in range(count):
        total += 1.0 / (rank + 1) ** exponent
        cumulative.append(total)

    def pick(rng: random.Random) -> int:
        return min(bisect.bisect(cumulative, rng.random() * total), count - 1)

    return pick


class Workload:
    """What the runner needs from a workload."""

    name = ""
    #: Ops run untimed after set-up, until caches hold steady.
    PRELUDE_OPS = 0
    #: Whether a run pins itself and the processes it starts to one CPU.
    PINNED = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Set by the runner for the measured phase of a traced run.
        self.tracer: Tracer | None = None

    def span(self, name: str) -> Any:
        return self.tracer.span(name) if self.tracer is not None else NULL_SPAN

    def start(self) -> None:
        """Called once per run, untimed, before the first set-up."""

    def stop(self) -> None:
        """Called once per run, after the last world is closed."""

    def setup(self) -> Any:
        raise NotImplementedError

    def close(self, world: Any) -> dict[str, Any]:
        """Tear the world down; returns what another process measured."""
        world.community.close()
        return {}

    def ops(self) -> Iterator[tuple[Any, ...]]:
        raise NotImplementedError

    def run(self, world: Any, op: tuple[Any, ...], tally: Tally, gate: Gate) -> None:
        raise NotImplementedError

    def begin(self, world: Any) -> None:
        """Called once, right before the measured phase."""

    def counters(self, world: Any) -> dict[str, float]:
        """Program counters read before and after the measured phase."""
        cache = world.community.view_cache
        stats = cache.stats if cache is not None else None
        return {
            "modeled_s": world.community.clock.total(),
            "compiles": compile_call_count(),
            "wraps": wrap_call_count(),
            "cache_hits": stats.hits if stats else 0,
            "cache_semantic_hits": stats.semantic_hits if stats else 0,
            "cache_misses": stats.misses if stats else 0,
            "cache_evictions": stats.evictions if stats else 0,
        }

    def _pull(
        self, member: Any, document: Any, query: str | None
    ) -> tuple[str, SessionMetrics, float]:
        """One timed pull: ``open`` through ``query(q).text()``."""
        started = time.perf_counter()
        with self.span("community"):
            with member.open(document, transfer=WINDOW) as session:
                stream = session.query(query)
                text = stream.text()
        return text, stream.metrics, time.perf_counter() - started


# -- card-pull ------------------------------------------------------------


@dataclass
class _PullWorld:
    community: Community
    members: dict[str, Any]
    documents: dict[str, Any]


class CardPull(Workload):
    """Hospital pulls through a low-memory card, in process, cache off."""

    name = "card-pull"
    PATIENTS = (5, 10, 20, 40)
    SUBJECTS = ("doctor", "accountant")
    QUERIES = (
        None,
        "//diagnosis",
        "//patient/name",
        "//prescription/drug",
        "//ward//billing",
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(f"card-pull:{seed}")
        self.rules = hospital_rules()
        self.docs: dict[str, tuple[list[Event], int]] = {}
        self.expected: dict[tuple[str, str, str | None], str] = {}
        for patients in self.PATIENTS:
            doc_id = f"hospital-{patients}"
            tree = hospital(n_patients=patients, seed=rng.randrange(1 << 30))
            self.docs[doc_id] = _document(tree)
            for subject in self.SUBJECTS:
                for query in self.QUERIES:
                    self.expected[(doc_id, subject, query)] = _expected(
                        tree, self.rules, subject, query
                    )
        self.combos = list(self.expected)

    def setup(self) -> _PullWorld:
        community = Community()
        owner = community.enroll("owner")
        # strict_memory=False: the applet keeps a few hundred bytes of
        # modeled RAM charged per session, so a strict 1 KB card refuses
        # after a handful of pulls; the benchmark records it instead.
        members = {
            name: community.enroll(name, strict_memory=False)
            for name in self.SUBJECTS
        }
        documents = {
            doc_id: owner.publish(
                events, self.rules, to=list(members.values()), doc_id=doc_id
            )
            for doc_id, (events, _) in self.docs.items()
        }
        for document in documents.values():
            for member in members.values():
                with member.open(document, transfer=WINDOW) as session:
                    session.query().text()
        return _PullWorld(community, members, documents)

    def ops(self) -> Iterator[tuple[Any, ...]]:
        # Every combination once per block, blocks shuffled by the
        # seed: the op mix of a run barely depends on the seed.
        rng = random.Random(f"card-pull-ops:{self.seed}")
        while True:
            block = list(self.combos)
            rng.shuffle(block)
            yield from block

    def run(self, world: _PullWorld, op: tuple[Any, ...], tally: Tally, gate: Gate) -> None:
        doc_id, subject, query = op
        what = f"pull {doc_id} as {subject} {query or '(whole)'}"
        started = time.perf_counter()
        try:
            text, metrics, seconds = self._pull(
                world.members[subject], world.documents[doc_id], query
            )
        except Exception as exc:  # any raise is a failed op, not a crash
            tally.op("pull", time.perf_counter() - started, gate.unexpected(what, exc))
            return
        tally.op("pull", seconds, gate.view(what, text, self.expected[op]))
        tally.view(seconds, self.docs[doc_id][1])
        tally.session(metrics)


# -- served-mix -----------------------------------------------------------


@dataclass
class _ServedWorld:
    community: Community
    remote: Any
    owner: Any
    members: dict[str, Any]
    documents: dict[int, Any]


class ServedMix(Workload):
    """The collaborative agenda, served by the reactor to cached readers."""

    name = "served-mix"
    MEMBERS = ("alice", "bruno", "carla", "deng", "elsa", "farid")
    DOCS = 16
    EVENTS_PER_MEMBER = 4
    #: The whole view and narrower absolute paths it contains, so the
    #: cache can answer the narrow ones semantically.
    QUERIES = (
        None,
        "/agenda/member",
        "/agenda/member/event",
        "/agenda/member/event/title",
        "/agenda/member/event/participants",
    )
    #: An assumption, not a measured trace: at 1.2 about 76% of pulls
    #: hit the cache, so the median pull is a hit with a margin.  At the
    #: exponents published for web and key-value traffic (0.64 to 0.99)
    #: the hit share falls to 60-70%, and the median pull sits in the
    #: slow tail of the hits or flips to a miss.  No exponent makes the
    #: cache's 256-entry capacity bind: the writes and the stale entries
    #: a probe drops keep it at 136-240 entries (README.md).
    ZIPF_EXPONENT = 1.2
    #: Share of draws that are an owner write.  A revoke draw runs three
    #: ops (revoke, the refused pull, grant), so 1/16 of draws makes 10%
    #: of all ops owner ops.
    WRITE_SHARE = 1 / 16
    #: The view cache starts with every whole-document view from the
    #: warm-up, and its hit ratio falls from about 0.89 to a steady
    #: 0.68-0.84 (per 250 ops) within about 500 ops; the prelude runs
    #: three times that.
    PRELUDE_OPS = 1500
    #: The loop is closed, so the generator and the owner process never
    #: need to run at once; on a shared virtual machine a wake-up on the
    #: other CPU takes longer, and varies more, than a cache hit's work.
    PINNED = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.rule_variants = self.rule_sets()
        self.trees = self.corpus(seed)
        self.sizes = {key: _document(tree)[1] for key, tree in self.trees.items()}
        self.expected: dict[tuple[Any, ...], str] = {}
        for (doc, variant), tree in self.trees.items():
            for rules_variant, rules in enumerate(self.rule_variants):
                for member in self.MEMBERS:
                    for query in self.QUERIES:
                        self.expected[(doc, variant, rules_variant, member, query)] = (
                            _expected(tree, rules, member, query)
                        )

    @classmethod
    def rule_sets(cls) -> list[RuleSet]:
        """The two policies ``update_rules`` switches between."""
        members = list(cls.MEMBERS)
        return [agenda_rules(members), owner_private_rules(members)]

    @classmethod
    def corpus(cls, seed: int) -> dict[tuple[int, int], Element]:
        """Two content versions of every agenda document."""
        rng = random.Random(f"served-mix:{seed}")
        return {
            (doc, variant): agenda(
                n_members=len(cls.MEMBERS),
                events_per_member=cls.EVENTS_PER_MEMBER,
                seed=rng.randrange(1 << 30),
            )
            for doc in range(cls.DOCS)
            for variant in (0, 1)
        }

    @staticmethod
    def doc_id(doc: int) -> str:
        return f"agenda-{doc}"

    def start(self) -> None:
        import served

        self.process = served.OwnerProcess.start(self.seed)

    def stop(self) -> None:
        self.process.stop()

    def setup(self) -> _ServedWorld:
        from repro.dsp.remote import RemoteDSP

        owner = self.process
        address = owner.serve()
        try:
            remote = RemoteDSP.connect(address)
            community = Community.attach(remote)
            community.enable_view_cache()
            members = {
                name: community.enroll(name, strict_memory=False)
                for name in self.MEMBERS
            }
            documents = {
                doc: community.adopt(self.doc_id(doc), "owner")
                for doc in range(self.DOCS)
            }
            for document in documents.values():
                for member in members.values():
                    with member.open(document, transfer=WINDOW) as session:
                        session.query().text()
        except BaseException:
            owner.teardown()
            raise
        return _ServedWorld(community, remote, owner, members, documents)

    def close(self, world: _ServedWorld) -> dict[str, Any]:
        try:
            world.community.close()
            world.remote.close()
        finally:
            report = world.owner.teardown()
        return report

    def begin(self, world: _ServedWorld) -> None:
        world.owner.call(("mark", self.tracer is not None))

    def ops(self) -> Iterator[tuple[Any, ...]]:
        keys = [
            (doc, member, query)
            for doc in range(self.DOCS)
            for member in self.MEMBERS
            for query in self.QUERIES
        ]
        # One fixed popularity order for every seed: the seed picks the
        # draws and the writes, so the hit ratio does not depend on it.
        random.Random("served-mix-popularity").shuffle(keys)
        pick = _zipf_picker(len(keys), self.ZIPF_EXPONENT)
        rng = random.Random(f"served-mix-ops:{self.seed}")
        content = [0] * self.DOCS
        rules = [0] * self.DOCS
        while True:
            if rng.random() >= self.WRITE_SHARE:
                doc, member, query = keys[pick(rng)]
                yield ("pull", doc, member, query, (doc, content[doc], rules[doc], member, query))
                continue
            # Owners edit whatever they edit: writes are uniform, not
            # drawn by read popularity.
            doc = rng.randrange(self.DOCS)
            member = rng.choice(self.MEMBERS)
            query = rng.choice(self.QUERIES)
            kind = rng.choice(("republish", "update_rules", "revoke"))
            if kind == "republish":
                content[doc] ^= 1
                yield ("republish", doc, content[doc], rules[doc])
            elif kind == "update_rules":
                rules[doc] ^= 1
                yield ("update_rules", doc, rules[doc])
            else:
                yield ("revoke", doc, member)
                yield ("refused", doc, member, query)
                yield ("grant", doc, member)

    def run(self, world: _ServedWorld, op: tuple[Any, ...], tally: Tally, gate: Gate) -> None:
        kind = op[0]
        if kind == "pull":
            _, doc, member, query, expected_key = op
            what = f"pull {self.doc_id(doc)} as {member} {query or '(whole)'}"
            started = time.perf_counter()
            try:
                text, metrics, seconds = self._pull(
                    world.members[member], world.documents[doc], query
                )
            except Exception as exc:  # any raise is a failed op, not a crash
                tally.op("pull", time.perf_counter() - started, gate.unexpected(what, exc))
                return
            tally.op("pull", seconds, gate.view(what, text, self.expected[expected_key]))
            tally.view(seconds, self.sizes[(doc, expected_key[1])])
            tally.session(metrics)
        elif kind == "refused":
            _, doc, member, query = op
            what = f"pull {self.doc_id(doc)} as revoked {member}"
            outcome: "BaseException | str"
            started = time.perf_counter()
            try:
                outcome = self._pull(
                    world.members[member], world.documents[doc], query
                )[0]
            except Exception as exc:  # KeyNotGranted is the right answer
                outcome = exc
            tally.op("refused", time.perf_counter() - started, gate.refused(what, outcome))
        else:
            started = time.perf_counter()
            with self.span("control"):
                status, detail, spent = world.owner.call(op)
            seconds = time.perf_counter() - started
            if self.tracer is not None:
                self.tracer.absorb_remote(spent)
            ok = status == "ok" or gate.unexpected(
                f"{kind} {self.doc_id(op[1])}", RuntimeError(detail)
            )
            tally.op(kind, seconds, ok)


# -- feed-video -----------------------------------------------------------


@dataclass
class _FeedWorld:
    #: member -> tier, the same in every season.
    tier_of: dict[str, str]
    #: The current season: a community whose owner runs one feed.
    community: Any = None
    owner: Any = None
    members: dict[str, Any] = field(default_factory=dict)
    feed: Any = None
    #: member -> live handle on the current feed.
    handles: dict[str, Any] = field(default_factory=dict)
    #: Handles revoked this season: they must never grow.
    revoked: list[Any] = field(default_factory=list)
    #: (doc_id, pool index) of every document in the current feed.
    docs: list[tuple[str, int]] = field(default_factory=list)
    #: (member, doc_id) sessions already tallied.
    seen: set[tuple[str, str]] = field(default_factory=set)
    #: Modeled card time of the seasons already closed.
    modeled_closed: float = 0.0


class FeedVideo(Workload):
    """Parental-control video dissemination through a three-tier feed."""

    name = "feed-video"
    TIERS = (
        TierSpec("news", allow=("/stream/news",)),
        TierSpec("full", allow=("/stream",)),
        TierSpec(
            "kids",
            allow=(
                "/stream",
                '//segment[meta/rating = "G"]/*',
                '//segment[meta/rating = "PG"]/*',
            ),
            deny=("//segment",),
        ),
    )
    FEED = "tv"
    MEMBERS = 16
    POOL = 8
    VIDEOS = 5
    #: A community and its feed keep every document and view they ever
    #: delivered, about 90 KB per delivery, so after this many deliveries the season ends and a new
    #: community opens a new feed: the peak RSS then stops growing after
    #: about 200 deliveries instead of growing with the length of the
    #: run (and so with the program's speed).  Delivery latency does not
    #: depend on the season's length.
    DOCS_PER_SEASON = 24
    #: Share of deliveries preceded by a revoke.  A revoked viewer
    #: rejoins its tier when the next season opens, so every season
    #: starts with the same tier mix whatever the seed.
    REVOKE_SHARE = 0.05

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(f"feed-video:{seed}")
        rules = compose_rules(self.FEED, self.TIERS)
        self.pool: list[tuple[list[Event], int]] = []
        self.expected: dict[tuple[int, str], str] = {}
        self.names = [f"viewer-{index:02d}" for index in range(self.MEMBERS)]
        for index in range(self.POOL):
            tree = video_catalog(self.VIDEOS, seed=rng.randrange(1 << 30))
            self.pool.append(_document(tree))
            for spec in self.TIERS:
                # Tier rules name the group, never the member.
                subject = Subject("viewer", frozenset({spec.group(self.FEED)}))
                self.expected[(index, spec.name)] = _expected(tree, rules, subject)

    def _open_season(self, world: _FeedWorld) -> None:
        if world.community is not None:
            world.modeled_closed += world.community.clock.total()
            world.community.close()
        community = Community()
        world.community = community
        world.owner = community.enroll("owner")
        world.members = {
            name: community.enroll(name, strict_memory=False) for name in self.names
        }
        world.feed = community.feed(self.FEED, owner=world.owner, tiers=list(self.TIERS))
        world.docs = []
        world.seen = set()
        world.revoked = []
        world.handles = {
            name: world.feed.subscribe(world.members[name], world.tier_of[name])
            for name in self.names
        }

    def setup(self) -> _FeedWorld:
        world = _FeedWorld(
            {
                name: self.TIERS[index % len(self.TIERS)].name
                for index, name in enumerate(self.names)
            }
        )
        self._open_season(world)
        # Warm-up: one delivery runs every code path a delivery takes.
        events, _ = self.pool[0]
        world.feed.publish(events, doc_id="warm-up")
        world.feed.broadcast()
        self._open_season(world)
        return world

    def counters(self, world: _FeedWorld) -> dict[str, float]:
        counters = super().counters(world)
        counters["modeled_s"] += world.modeled_closed
        return counters

    def ops(self) -> Iterator[tuple[Any, ...]]:
        rng = random.Random(f"feed-video-ops:{self.seed}")
        order: list[int] = []
        in_season = 0
        revoked: set[str] = set()
        while True:
            if in_season == self.DOCS_PER_SEASON:
                yield ("season",)
                in_season = 0
                revoked = set()
            if rng.random() < self.REVOKE_SHARE:
                name = rng.choice([name for name in self.names if name not in revoked])
                revoked.add(name)
                yield ("revoke", name)
                yield ("refused", name)
            if not order:
                order = list(range(self.POOL))
                rng.shuffle(order)
            yield ("deliver", order.pop())
            in_season += 1

    def run(self, world: _FeedWorld, op: tuple[Any, ...], tally: Tally, gate: Gate) -> None:
        kind = op[0]
        started = time.perf_counter()
        try:
            if kind == "deliver":
                self._deliver(world, op[1], tally, gate)
                return
            if kind == "refused":
                try:
                    world.feed.catch_up(world.members[op[1]])
                    outcome: "BaseException | str" = "catch-up replayed a cycle"
                except KeyNotGranted as exc:
                    outcome = exc
                seconds = time.perf_counter() - started
                tally.op(kind, seconds, gate.refused(f"catch-up of revoked {op[1]}", outcome))
                return
            with self.span("community"):
                if kind == "season":
                    self._open_season(world)
                else:  # revoke
                    world.feed.revoke(op[1])
                    world.revoked.append(world.handles.pop(op[1]))
            tally.op(kind, time.perf_counter() - started, True)
        except Exception as exc:  # any raise is a failed op, not a crash
            tally.op(kind, time.perf_counter() - started, gate.unexpected(f"{kind} {op[1:]}", exc))

    def _deliver(self, world: _FeedWorld, index: int, tally: Tally, gate: Gate) -> None:
        events, size = self.pool[index]
        feed = world.feed
        doc_id = f"{feed.name}-{len(world.docs)}"
        started = time.perf_counter()
        with self.span("community"):
            wraps = wrap_call_count()
            feed.publish(events, doc_id=doc_id)
            publish_wraps = wrap_call_count() - wraps
            feed.broadcast()
        seconds = time.perf_counter() - started
        tally.publishes += 1
        tally.publish_wraps += publish_wraps
        world.docs.append((doc_id, index))
        ok = True
        for name, handle in world.handles.items():
            views = handle.views
            for held_id, pool_index in world.docs:
                expected = self.expected[(pool_index, world.tier_of[name])]
                what = f"{name} ({world.tier_of[name]}) holds {held_id}"
                ok = gate.view(what, views.get(held_id, ""), expected) and ok
                if (name, held_id) not in world.seen and held_id in views:
                    world.seen.add((name, held_id))
                    tally.session(handle.metrics_for(held_id))
        for handle in world.revoked:
            if doc_id in handle.views:
                ok = gate.refused(
                    f"revoked {handle.member.name} got {doc_id}", handle.views[doc_id]
                ) and ok
        tally.op("deliver", seconds, ok)
        tally.view(seconds, size)


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (CardPull, ServedMix, FeedVideo)
}
