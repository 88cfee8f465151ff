"""Owner-side publishing API (the "XML API").

The publisher is what a document owner runs on their own terminal:
encode the document with its skip index, seal it, seal the access
rules, and wrap the document secret for each community member through
the simulated PKI.  Crucially -- this is the paper's motivation --
**updating the access rules re-seals only the tiny rule records**: the
document ciphertext is untouched and no user key changes.  Experiment
E8 measures exactly that against the static-encryption baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.rules import AccessRule, RuleSet
from repro.crypto.container import DocumentContainer, seal_blob, seal_document
from repro.crypto.keys import DocumentKeys, random_key
from repro.crypto.pki import SimulatedPKI
from repro.dsp.store import DSPStore
from repro.errors import PolicyError
from repro.skipindex.encoder import IndexMode, encode_document
from repro.xmlstream.events import Event


@dataclass(slots=True)
class PublishReceipt:
    """Accounting of one publish/update operation (E8 reads this)."""

    doc_id: str
    version: int
    document_bytes_encrypted: int
    rule_bytes_encrypted: int
    keys_distributed: int


def _seal_rules(
    rules: RuleSet, doc_id: str, version: int, keys: DocumentKeys
) -> tuple[list[bytes], int]:
    records: list[bytes] = []
    total = 0
    for index, rule in enumerate(rules):
        line = f"{rule.sign}|{rule.subject}|{rule.object}".encode("utf-8")
        record = seal_blob(line, f"{doc_id}#rule:{index}", version, keys)
        records.append(record)
        total += len(record)
    return records, total


class Publisher:
    """A document owner's publishing endpoint.

    Applications reach it through the facade: ``member.publish(...)``
    and the :class:`repro.community.Document` handle's
    ``update_rules``/``grant`` delegate here.
    """

    def __init__(self, owner: str, store: DSPStore, pki: SimulatedPKI) -> None:
        self.owner = owner
        self.store = store
        self.pki = pki
        self._secrets: dict[str, bytes] = {}
        self._versions: dict[str, int] = {}

    def _secret(self, doc_id: str) -> bytes:
        secret = self._secrets.get(doc_id)
        if secret is None:
            raise PolicyError(
                f"{self.owner!r} never published a document {doc_id!r}",
                doc_id=doc_id,
                subject=self.owner,
            )
        return secret

    def secret_for(self, doc_id: str) -> bytes:
        """The document secret (owner side only)."""
        return self._secret(doc_id)

    def publish(
        self,
        doc_id: str,
        events: list[Event],
        rules: RuleSet,
        recipients: list[str],
        index_mode: IndexMode = IndexMode.RECURSIVE,
        chunk_size: int = 96,
    ) -> PublishReceipt:
        """Encode, seal and upload a document with its policy and keys."""
        secret = self._secrets.get(doc_id)
        if secret is None:
            secret = random_key()
            self._secrets[doc_id] = secret
        keys = DocumentKeys(secret)
        version = self._versions.get(doc_id, 0) + 1
        self._versions[doc_id] = version
        plaintext = encode_document(events, index_mode)
        container = seal_document(
            plaintext, doc_id, version, keys, chunk_size=chunk_size
        )
        # A republish reuses the document secret, so existing grants
        # (wrapped keys) stay valid and are explicitly kept; the rule
        # records are replaced wholesale just below.
        self.store.put_document(container, keep_keys=True)
        records, rule_bytes = _seal_rules(rules, doc_id, version, keys)
        self.store.put_rules(doc_id, records, version)
        wrapped = self.pki.publish_secret(self.owner, recipients, secret)
        for recipient, blob in wrapped.items():
            self.store.put_wrapped_key(doc_id, recipient, blob)
        return PublishReceipt(
            doc_id=doc_id,
            version=version,
            document_bytes_encrypted=container.stored_size,
            rule_bytes_encrypted=rule_bytes,
            keys_distributed=len(recipients),
        )

    def update_rules(self, doc_id: str, rules: RuleSet) -> PublishReceipt:
        """Change the policy without touching the document.

        This is the paper's headline property: "dissociating access
        rights from encryption" -- zero document bytes re-encrypted,
        zero keys redistributed.
        """
        secret = self._secret(doc_id)
        keys = DocumentKeys(secret)
        version = self.store.get(doc_id).rules_version + 1
        records, rule_bytes = _seal_rules(rules, doc_id, version, keys)
        self.store.put_rules(doc_id, records, version)
        return PublishReceipt(
            doc_id=doc_id,
            version=version,
            document_bytes_encrypted=0,
            rule_bytes_encrypted=rule_bytes,
            keys_distributed=0,
        )

    def grant_access(self, doc_id: str, recipient: str) -> None:
        """Wrap the document secret for one more community member."""
        blob = self.pki.wrap_secret(
            self.owner, recipient, self._secret(doc_id)
        )
        self.store.put_wrapped_key(doc_id, recipient, blob)

    def container(self, doc_id: str) -> DocumentContainer:
        return self.store.get(doc_id).container


def make_rule(sign: str, subject: str, xpath: str) -> AccessRule:
    """Terse rule constructor for applications and examples."""
    return AccessRule.parse(sign, subject, xpath)
