"""The :class:`Community` facade and its :class:`Member` /
:class:`Document` handles.

One ``Community`` owns the shared infrastructure the paper's scenarios
always wire by hand -- a simulated PKI, an untrusted store behind a
:class:`~repro.dsp.server.DSPServer`, one simulated clock and one
compiled-policy :class:`~repro.core.compiled.PolicyRegistry` -- and
hands out object handles instead:

* ``community.enroll(name)`` -> :class:`Member` (a PKI identity plus a
  lazily created publisher endpoint and smart-card terminal);
* ``member.publish(xml, rules, to=[...])`` -> :class:`Document` (an
  owner-side handle whose ``update_rules``/``grant``/``revoke``
  delegate to the paper's re-seal semantics: policy changes never
  re-encrypt the document or redistribute keys);
* ``member.open(document)`` -> :class:`~repro.community.session.Session`
  (a context manager running pull sessions through the member's card);
* ``community.channel(document)`` ->
  :class:`~repro.community.channels.Channel` (the push/carousel path
  under the same handle model).

The facade also owns the **deployment topology** (the DSP is an
untrusted *service*, not a Python object):

* ``Community()`` -- in-process and volatile, the historical default;
* ``Community(store_path="dsp.db")`` -- the DSP's disk is a durable
  SQLite file; ``Community.open(path)`` reopens it in a fresh process
  with every document, rule version and wrapped key intact;
* ``community.serve()`` -- expose the DSP over TCP, by default through
  the event-loop :class:`~repro.dsp.reactor.ReactorDSPServer` with
  admission control (``server="threaded"`` keeps the
  thread-per-connection baseline);
  ``Community.attach(RemoteDSP.connect(addr))`` builds a reader-side
  community in another process whose terminals pull from it.

Because every member's card shares the community's policy registry,
repeated sessions -- and whole subscriber fleets on the same tier --
compile each distinct sub-policy exactly once.

Failures surface as the :mod:`repro.errors` taxonomy, never as bare
``KeyError``/``ValueError``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence, Union

from repro.cache.viewcache import ViewCache
from repro.community.channels import Channel
from repro.community.session import Session
from repro.core.compiled import PolicyRegistry
from repro.core.delivery import ViewMode
from repro.core.rules import AccessRule, RuleSet
from repro.crypto.container import DocumentContainer
from repro.crypto.pki import SimulatedPKI
from repro.dsp.backends import SQLiteBackend, StoreBackend
from repro.dsp.client import DSPClient
from repro.dsp.reactor import AdmissionPolicy, ReactorDSPServer
from repro.dsp.remote import DSPSocketServer
from repro.dsp.server import DSPServer
from repro.dsp.store import DSPStore
from repro.errors import PolicyError, UnknownDocument
from repro.feeds.feed import Feed
from repro.feeds.subscriber import FeedSubscriberHandle
from repro.feeds.tiers import TierSpec
from repro.skipindex.encoder import IndexMode
from repro.smartcard.resources import LinkModel, NetworkModel, SimClock
from repro.terminal.api import Publisher, PublishReceipt
from repro.terminal.session import Terminal
from repro.terminal.transfer import TransferPolicy
from repro.xmlstream.events import Event
from repro.xmlstream.parser import parse_string

#: What ``member.publish`` accepts as the document: XML text or an
#: already-parsed event stream.
DocumentSource = Union[str, Iterable[Event]]

#: What ``member.publish`` accepts as one rule: a parsed
#: :class:`AccessRule` or a terse ``(sign, subject, xpath)`` triple.
RuleLike = Union[AccessRule, "tuple[str, str, str]"]

#: What ``member.publish`` accepts as the policy.
RulesLike = Union[RuleSet, Iterable[RuleLike]]

#: The ``meta`` key the deployment manifest is stored under in a
#: durable backend.
_MANIFEST_KEY = "community:manifest"


def _as_events(source: DocumentSource) -> list[Event]:
    if isinstance(source, str):
        return parse_string(source)
    return list(source)


def _as_rules(rules: RulesLike) -> RuleSet:
    if isinstance(rules, RuleSet):
        return rules
    parsed: list[AccessRule] = []
    for rule in rules:
        if isinstance(rule, AccessRule):
            parsed.append(rule)
        else:
            sign, subject, xpath = rule
            parsed.append(AccessRule.parse(sign, subject, xpath))
    return RuleSet(parsed)


class Community:
    """A community of members sharing documents through one DSP.

    The facade owns the infrastructure every scenario needs exactly
    once: ``pki``, ``store``, ``dsp``, ``clock`` and the shared
    compiled-policy ``registry``.  All of them remain reachable as
    attributes, so code that needs the lower layers (benchmarks,
    tamper injection) can still touch them directly.

    Topology knobs: ``store_path`` (or a prebuilt ``backend``) makes
    the DSP's disk a durable SQLite file; ``client`` *attaches* the
    community to a DSP served elsewhere, in which case there is no
    local ``store`` and ``dsp`` is the given
    :class:`~repro.dsp.client.DSPClient`.  Attached communities read
    (``adopt`` + ``member.open``); publishing needs the process that
    owns the store.
    """

    def __init__(
        self,
        *,
        clock: SimClock | None = None,
        network: NetworkModel | None = None,
        store: DSPStore | None = None,
        registry: PolicyRegistry | None = None,
        store_path: "str | Path | None" = None,
        backend: StoreBackend | None = None,
        client: DSPClient | None = None,
        view_cache: ViewCache | None = None,
    ) -> None:
        given = [
            name
            for name, value in (
                ("store", store),
                ("store_path", store_path),
                ("backend", backend),
                ("client", client),
            )
            if value is not None
        ]
        if len(given) > 1:
            raise PolicyError(
                "pass at most one of store/store_path/backend/client "
                f"(got {', '.join(given)})"
            )
        self.store: DSPStore | None
        self.dsp: DSPClient
        if client is not None:
            if network is not None:
                raise PolicyError(
                    "network= models the served DSP's transport and is "
                    "ignored by an attached client; configure it on the "
                    "serving community"
                )
            self.store = None
            self.dsp = client
            self.clock = clock if clock is not None else client.clock
        else:
            if backend is not None:
                store = DSPStore(backend)
            elif store_path is not None:
                store = DSPStore(SQLiteBackend(store_path))
            elif store is None:
                store = DSPStore()
            self.store = store
            self.clock = clock if clock is not None else SimClock()
            self.dsp = DSPServer(store, network=network, clock=self.clock)
        self.pki = SimulatedPKI()
        #: The terminal-side authorized-view cache, OFF by default --
        #: warm sessions then cost one ``GET_META`` probe instead of a
        #: full pull, but the simulated clocks gain that probe, so the
        #: bit-for-bit parity baselines keep it disabled.  Enable with
        #: ``Community(view_cache=ViewCache())`` or
        #: :meth:`enable_view_cache`.
        self.view_cache = view_cache
        self.registry = registry if registry is not None else PolicyRegistry()
        self._members: dict[str, Member] = {}
        self._documents: dict[str, Document] = {}
        self._channels: dict[str, Channel] = {}
        self._feeds: dict[str, Feed] = {}
        self._doc_sequence = 0
        self._servers: list[ReactorDSPServer | DSPSocketServer] = []
        self._restoring = False

    # -- topology ---------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: "str | Path",
        *,
        clock: SimClock | None = None,
        network: NetworkModel | None = None,
        registry: PolicyRegistry | None = None,
    ) -> "Community":
        """Reopen a community persisted to a SQLite store file.

        Everything the DSP held -- documents, rule versions, wrapped
        keys -- is intact, and the deployment manifest (member names
        and card configs, document owners and recipients) is restored,
        so reader sessions work immediately: the simulated PKI derives
        each principal's key pair deterministically from its name, so
        re-enrolled members unwrap their stored wrapped keys.

        Owner *plaintext* state (document events, rules, the publisher
        secrets) is deliberately not persisted at the untrusted store;
        restored :class:`Document` handles are **sealed** -- pull
        sessions and broadcasts work, ``update_rules``/``grant``/
        ``preview`` need the original owner process.
        """
        if not Path(path).exists():
            raise PolicyError(
                f"no community store at {path} (Community.open reopens an "
                "existing file; pass store_path= to create one)"
            )
        community = cls(
            store_path=path, clock=clock, network=network, registry=registry
        )
        meta = community._meta_backend()
        raw = meta.get_meta(_MANIFEST_KEY) if meta is not None else None
        if raw is not None:
            manifest = json.loads(raw)
            community._restoring = True
            try:
                for name, config in manifest.get("members", {}).items():
                    community.enroll(
                        name,
                        ram_quota=config.get("ram_quota"),
                        strict_memory=bool(config.get("strict_memory", True)),
                    )
                for doc_id, info in manifest.get("documents", {}).items():
                    community.adopt(doc_id, info["owner"])
                    community._documents[doc_id].recipients = list(
                        info.get("recipients", [])
                    )
                for name, feed_info in manifest.get("feeds", {}).items():
                    # Tier *rules* are never in the manifest (policy is
                    # sealed at the DSP, exactly like document rules);
                    # only names and quotas -- shapes the DSP observes
                    # from the broadcast anyway -- are restored, and the
                    # feed comes back sealed: catch-up works, owner
                    # operations need the publishing process.
                    community._feeds[name] = Feed(
                        community,
                        name,
                        community.member(feed_info["owner"]),
                        [
                            TierSpec(
                                name=tier["name"], quota=tier.get("quota")
                            )
                            for tier in feed_info.get("tiers", [])
                        ],
                        sealed=True,
                        doc_ids=list(feed_info.get("docs", [])),
                    )
                community._doc_sequence = int(
                    manifest.get("doc_sequence", 0)
                )
            finally:
                community._restoring = False
        return community

    @classmethod
    def attach(
        cls,
        client: DSPClient,
        *,
        registry: PolicyRegistry | None = None,
    ) -> "Community":
        """A reader-side community over a DSP served elsewhere.

        ``client`` is typically
        ``RemoteDSP.connect(server.address)``.  Members enrolled here
        derive the same deterministic key pairs as in the serving
        process, so a member the owner granted a key to can ``adopt``
        the document and open pull sessions from this process.  The
        client stays caller-owned: closing the community does not
        close it.
        """
        return cls(client=client, registry=registry)

    def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        server: str = "reactor",
        loops: int = 1,
        admission: AdmissionPolicy | None = None,
        idle_timeout: float | None = None,
    ) -> "ReactorDSPServer | DSPSocketServer":
        """Expose this community's DSP over TCP.

        ``server`` picks the serving architecture: ``"reactor"`` (the
        default) is the non-blocking event-loop
        :class:`~repro.dsp.reactor.ReactorDSPServer` -- buffered
        writes so slow readers never stall the fleet, ``loops`` loop
        workers, ``admission`` capacity limits rejecting over-capacity
        requests with typed :class:`~repro.errors.ResourceExhausted`
        frames; ``"threaded"`` is the thread-per-connection
        :class:`~repro.dsp.remote.DSPSocketServer` kept as the
        comparison baseline.  Either way ``server.address`` is the
        bound endpoint (``port=0`` picks an ephemeral port),
        ``idle_timeout`` reaps abandoned connections, many remote
        terminals can pull concurrently, and the server is also closed
        by :meth:`close`.
        """
        dsp = self.dsp
        if not isinstance(dsp, DSPServer):
            raise PolicyError(
                "this community is attached to a remote DSP; only the "
                "process that owns the store can serve it"
            )
        endpoint: ReactorDSPServer | DSPSocketServer
        if server == "reactor":
            endpoint = ReactorDSPServer(
                dsp,
                host=host,
                port=port,
                loops=loops,
                admission=admission,
                idle_timeout=idle_timeout,
            )
        elif server == "threaded":
            if loops != 1 or admission is not None:
                raise PolicyError(
                    "loops= and admission= are reactor features; the "
                    "threaded baseline takes only idle_timeout="
                )
            endpoint = DSPSocketServer(
                dsp, host=host, port=port, idle_timeout=idle_timeout
            )
        else:
            raise PolicyError(
                f"unknown server architecture {server!r} "
                "(choose 'reactor' or 'threaded')"
            )
        self._servers.append(endpoint)
        return endpoint

    def enable_view_cache(
        self,
        cache: ViewCache | None = None,
        *,
        max_entries: int = 256,
        max_bytes: int = 16 << 20,
    ) -> ViewCache:
        """Turn on the terminal-side authorized-view cache.

        Every subsequent ``session.query`` starts with one tiny
        ``GET_META`` freshness probe: unchanged documents replay their
        cached view (zero chunk requests, zero card time), a version or
        rules bump falls through to a live pull, and a revoked subject
        is refused with :class:`~repro.errors.KeyNotGranted` -- never
        served from cache or from the card's retained copy.  Returns
        the active cache (its ``stats`` carry hit/miss/invalidation
        counters).
        """
        if self.view_cache is None:
            self.view_cache = (
                cache
                if cache is not None
                else ViewCache(max_entries=max_entries, max_bytes=max_bytes)
            )
        elif cache is not None and cache is not self.view_cache:
            raise PolicyError(
                "a view cache is already enabled on this community"
            )
        return self.view_cache

    def _invalidate_views(self, doc_id: str) -> None:
        """Owner-side eviction on republish / rules change.

        Defense in depth: the freshness probe would catch the staleness
        anyway, but local mutations may as well free the bytes now.
        """
        if self.view_cache is not None:
            self.view_cache.invalidate_document(doc_id)

    def _invalidate_subject_views(self, doc_id: str, subject: str) -> None:
        if self.view_cache is not None:
            self.view_cache.invalidate_subject(doc_id, subject)

    def close(self) -> None:
        """Shut down served endpoints and the durable store (idempotent)."""
        for server in self._servers:
            server.close()
        self._servers.clear()
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "Community":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _require_store(self) -> DSPStore:
        if self.store is None:
            raise PolicyError(
                "this community is attached to a remote DSP; the store "
                "lives in the serving process"
            )
        return self.store

    def _meta_backend(self) -> SQLiteBackend | None:
        if self.store is None:
            return None
        backend = self.store.backend
        return backend if isinstance(backend, SQLiteBackend) else None

    def _save_manifest(self) -> None:
        """Persist the deployment manifest next to a durable store.

        Only names and grant lists -- data the untrusted DSP already
        learns from uploads and wrapped-key recipients -- never key
        material or plaintext.
        """
        if self._restoring:
            return
        meta = self._meta_backend()
        if meta is None:
            return
        manifest = {
            "members": {
                name: {
                    "ram_quota": member._card_config[0],
                    "strict_memory": member._card_config[1],
                }
                for name, member in self._members.items()
            },
            "documents": {
                doc_id: {
                    "owner": document.owner.name,
                    "recipients": list(document.recipients),
                }
                for doc_id, document in self._documents.items()
            },
            "feeds": {
                name: {
                    "owner": feed.owner.name,
                    "tiers": [
                        {"name": spec.name, "quota": spec.quota}
                        for spec in feed.tiers
                    ],
                    "docs": [doc.doc_id for doc in feed.documents],
                }
                for name, feed in self._feeds.items()
            },
            "doc_sequence": self._doc_sequence,
        }
        meta.put_meta(_MANIFEST_KEY, json.dumps(manifest, sort_keys=True))

    # -- membership -------------------------------------------------------

    def enroll(
        self,
        name: str,
        *,
        ram_quota: int | None = 1024,
        strict_memory: bool = True,
        link: LinkModel | None = None,
    ) -> "Member":
        """Enroll a principal (idempotent) and return its handle.

        The card options pin the member's simulated smart card; they
        must match on a repeated enroll of the same name (enrolling is
        not key rotation -- rotate through ``community.pki`` directly
        if that is what you need).
        """
        existing = self._members.get(name)
        card_config = (ram_quota, strict_memory, link)
        if existing is not None:
            if existing._card_config != card_config:
                raise PolicyError(
                    f"member {name!r} is already enrolled with a "
                    "different card configuration",
                    subject=name,
                )
            return existing
        self.pki.enroll(name)
        member = Member(self, name, card_config)
        self._members[name] = member
        self._save_manifest()
        return member

    def member(self, name: str) -> "Member":
        """The handle of an enrolled member."""
        member = self._members.get(name)
        if member is None:
            raise PolicyError(
                f"{name!r} is not enrolled in this community", subject=name
            )
        return member

    @property
    def members(self) -> "list[Member]":
        return list(self._members.values())

    # -- documents --------------------------------------------------------

    def document(self, doc_id: str) -> "Document":
        """The handle of a published document."""
        document = self._documents.get(doc_id)
        if document is None:
            raise UnknownDocument(
                f"no document {doc_id!r} was published in this community",
                doc_id=doc_id,
            )
        return document

    @property
    def documents(self) -> "list[Document]":
        return list(self._documents.values())

    def adopt(self, doc_id: str, owner: "Member | str") -> "Document":
        """A sealed handle for a document published elsewhere.

        Used by attached communities (the document lives at the served
        DSP) and by :meth:`open` while restoring the manifest.  The
        handle supports the reader side -- ``member.open`` sessions,
        broadcasts from the stored container -- but carries no owner
        plaintext: ``update_rules``/``grant``/``preview`` raise
        :class:`~repro.errors.PolicyError` until the owning process
        does them.  Enrolls ``owner`` on demand (deterministic PKI
        keys make that match the serving process).
        """
        existing = self._documents.get(doc_id)
        if isinstance(owner, Member):
            owner_member = owner
        else:
            # An already-enrolled owner keeps its card config; enroll
            # with defaults only a principal this community never saw.
            member = self._members.get(owner)
            owner_member = member if member is not None else self.enroll(owner)
        if existing is not None:
            if existing.owner is not owner_member:
                raise PolicyError(
                    f"document {doc_id!r} belongs to "
                    f"{existing.owner.name!r}, not {owner_member.name!r}",
                    doc_id=doc_id,
                    subject=owner_member.name,
                )
            return existing
        document = Document(owner_member, doc_id, None, None, [], None)
        self._documents[doc_id] = document
        self._save_manifest()
        return document

    def _next_doc_id(self, owner: str) -> str:
        self._doc_sequence += 1
        return f"{owner}-doc-{self._doc_sequence}"

    # -- dissemination ----------------------------------------------------

    def channel(self, document: "Document | str") -> Channel:
        """The broadcast channel handle for one document (cached)."""
        if isinstance(document, str):
            document = self.document(document)
        channel = self._channels.get(document.doc_id)
        if channel is None:
            channel = Channel(self, document)
            self._channels[document.doc_id] = channel
        return channel

    def feed(
        self,
        name: str,
        *,
        owner: "Member | str | None" = None,
        tiers: Sequence[TierSpec] | None = None,
    ) -> Feed:
        """Create or fetch the tiered feed handle named ``name``.

        With ``owner=`` and ``tiers=`` it creates a new feed (group-key
        hierarchy written to the DSP, one lane per tier); without them
        it returns the existing handle.  A feed restored by
        :meth:`open` comes back sealed -- ``catch_up`` works, owner
        operations need the publishing process.
        """
        existing = self._feeds.get(name)
        if existing is not None:
            if owner is not None or tiers is not None:
                raise PolicyError(
                    f"feed {name!r} already exists; call "
                    f"community.feed({name!r}) without owner/tiers for "
                    "its handle",
                    subject=existing.owner.name,
                )
            return existing
        if owner is None or tiers is None:
            raise PolicyError(
                f"no feed {name!r} in this community "
                "(pass owner= and tiers= to create one)"
            )
        owner_member = owner if isinstance(owner, Member) else self.member(owner)
        feed = Feed(self, name, owner_member, list(tiers))
        self._feeds[name] = feed
        self._save_manifest()
        return feed

    @property
    def feeds(self) -> "list[Feed]":
        return list(self._feeds.values())


class Member:
    """One enrolled principal: an identity, a publisher, a card.

    Handles are cheap; the underlying
    :class:`~repro.terminal.api.Publisher` and
    :class:`~repro.terminal.session.Terminal` (which allocates the
    simulated card) are created on first use and then persist, so a
    member keeps one card across sessions -- version registers and
    unlocked documents behave like the paper's personalized card.
    """

    def __init__(
        self,
        community: Community,
        name: str,
        card_config: "tuple[int | None, bool, LinkModel | None]",
    ) -> None:
        self.community = community
        self.name = name
        self._card_config = card_config
        self._publisher: Publisher | None = None
        self._terminal: Terminal | None = None

    def __repr__(self) -> str:
        return f"Member({self.name!r})"

    @property
    def publisher(self) -> Publisher:
        """The member's owner-side publishing endpoint (lazy)."""
        if self._publisher is None:
            self._publisher = Publisher(
                self.name,
                self.community._require_store(),
                self.community.pki,
            )
        return self._publisher

    @property
    def terminal(self) -> Terminal:
        """The member's terminal with its smart card (lazy)."""
        if self._terminal is None:
            ram_quota, strict_memory, link = self._card_config
            self._terminal = Terminal(
                self.name,
                self.community.dsp,
                self.community.pki,
                link=link,
                ram_quota=ram_quota,
                strict_memory=strict_memory,
                registry=self.community.registry,
            )
        return self._terminal

    # -- owner side -------------------------------------------------------

    def publish(
        self,
        source: DocumentSource,
        rules: RulesLike,
        to: "Sequence[Member | str]" = (),
        *,
        doc_id: str | None = None,
        index_mode: IndexMode = IndexMode.RECURSIVE,
        chunk_size: int = 96,
    ) -> "Document":
        """Seal and upload a document; returns its handle.

        ``source`` is XML text or an event stream; ``rules`` a
        :class:`RuleSet`, parsed rules, or terse ``(sign, subject,
        xpath)`` triples; ``to`` the members granted the document
        secret.  Publishing the same ``doc_id`` again re-seals a new
        version under the same handle (owner only).
        """
        community = self.community
        recipients = [
            m.name if isinstance(m, Member) else community.member(m).name
            for m in to
        ]
        if doc_id is None:
            doc_id = community._next_doc_id(self.name)
        existing = community._documents.get(doc_id)
        if existing is not None and existing.owner is not self:
            raise PolicyError(
                f"document {doc_id!r} belongs to "
                f"{existing.owner.name!r}, not {self.name!r}",
                doc_id=doc_id,
                subject=self.name,
            )
        events = _as_events(source)
        ruleset = _as_rules(rules)
        receipt = self.publisher.publish(
            doc_id,
            events,
            ruleset,
            recipients,
            index_mode=index_mode,
            chunk_size=chunk_size,
        )
        if existing is not None:
            existing._update(events, ruleset, recipients, receipt)
            community._invalidate_views(doc_id)
            community._save_manifest()
            return existing
        document = Document(self, doc_id, events, ruleset, recipients, receipt)
        community._documents[doc_id] = document
        community._save_manifest()
        return document

    # -- reader side ------------------------------------------------------

    def subscribe(
        self,
        feed: "Feed | str",
        tier: str,
        *,
        view_mode: ViewMode = ViewMode.SKELETON,
        transfer: TransferPolicy | None = None,
    ) -> FeedSubscriberHandle:
        """Join a tier of a feed (``community.feed(...)`` sugar).

        One PKI wrap now, zero per-cycle cost after: the returned
        handle accumulates this member's authorized views as the feed
        broadcasts.
        """
        if isinstance(feed, str):
            feed = self.community.feed(feed)
        return feed.subscribe(
            self, tier, view_mode=view_mode, transfer=transfer
        )

    def open(
        self,
        document: "Document | str",
        *,
        transfer: TransferPolicy | None = None,
        groups: frozenset[str] = frozenset(),
    ) -> Session:
        """Open a pull session on a document (a context manager).

        Unlocks the document on the member's card (fetching and
        unwrapping the wrapped secret through the PKI) and returns a
        :class:`Session` whose ``query`` hands back incremental
        :class:`~repro.community.session.ViewStream` views.  ``transfer``
        overrides the chunk transport plan for this session only;
        ``groups`` carries the member's roles.
        """
        if isinstance(document, str):
            document = self.community.document(document)
        return Session(self, document, transfer=transfer, groups=groups)


class Document:
    """Owner-side handle of one published document.

    Mutating operations delegate to the paper's re-seal semantics:
    ``update_rules`` re-seals only the rule records (zero document
    bytes, zero keys), ``grant`` wraps the existing secret for one more
    member, ``revoke`` removes a member's wrapped key from the DSP.
    The handle retains the owner's plaintext events and current rules
    -- the owner has them by definition -- so dissemination previews
    can run without touching ciphertext.

    A handle restored by ``Community.open`` or created by
    ``Community.adopt`` is **sealed**: ``events``/``rules``/``receipt``
    are ``None`` (the owner's plaintext is never persisted at the
    untrusted store), so only the reader-side operations work.
    """

    def __init__(
        self,
        owner: Member,
        doc_id: str,
        events: "list[Event] | None",
        rules: RuleSet | None,
        recipients: list[str],
        receipt: PublishReceipt | None,
    ) -> None:
        self.owner = owner
        self.doc_id = doc_id
        self.events = events
        self.rules = rules
        self.recipients = list(recipients)
        self.receipt = receipt

    def __repr__(self) -> str:
        return f"Document({self.doc_id!r}, owner={self.owner.name!r})"

    @property
    def sealed(self) -> bool:
        """Whether this handle lacks the owner's plaintext state."""
        return self.events is None

    def _update(
        self,
        events: list[Event],
        rules: RuleSet,
        recipients: list[str],
        receipt: PublishReceipt,
    ) -> None:
        self.events = events
        self.rules = rules
        for recipient in recipients:
            if recipient not in self.recipients:
                self.recipients.append(recipient)
        self.receipt = receipt

    @property
    def container(self) -> DocumentContainer:
        """The sealed container as stored at the DSP."""
        return (
            self.owner.community._require_store().get(self.doc_id).container
        )

    def update_rules(self, rules: RulesLike) -> PublishReceipt:
        """Change the policy; re-seals ONLY the tiny rule records."""
        ruleset = _as_rules(rules)
        receipt = self.owner.publisher.update_rules(self.doc_id, ruleset)
        self.rules = ruleset
        self.receipt = receipt
        self.owner.community._invalidate_views(self.doc_id)
        return receipt

    def grant(self, member: "Member | str") -> None:
        """Wrap the document secret for one more member."""
        name = member.name if isinstance(member, Member) else member
        self.owner.community.member(name)  # must be enrolled
        self.owner.publisher.grant_access(self.doc_id, name)
        if name not in self.recipients:
            self.recipients.append(name)
        self.owner.community._save_manifest()

    def revoke(self, member: "Member | str") -> bool:
        """Remove a member's wrapped key from the DSP.

        Returns whether a key was removed.  A card that already
        unlocked the document keeps its provisioned copy, so durable
        revocation pairs this with an :meth:`update_rules` denying the
        member -- exactly the paper's dissociation of rights from
        encryption.
        """
        name = member.name if isinstance(member, Member) else member
        removed = self.owner.community._require_store().remove_wrapped_key(
            self.doc_id, name
        )
        if name in self.recipients:
            self.recipients.remove(name)
        self.owner.community._invalidate_subject_views(self.doc_id, name)
        self.owner.community._save_manifest()
        return removed
