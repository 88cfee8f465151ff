"""End-to-end session wiring: one user's terminal with its card.

A :class:`Terminal` owns a smart card, a proxy to a DSP and the user's
PKI identity.  ``unlock_document`` pulls the wrapped document secret
from the DSP, unwraps it with the user's key pair and provisions the
card over the (simulated) secure channel -- after that,
:class:`repro.community.Session` runs pull sessions through the
terminal's :class:`~repro.terminal.proxy.CardProxy`.
"""

from __future__ import annotations

from repro.core.compiled import PolicyRegistry
from repro.crypto.pki import SimulatedPKI
from repro.dsp.client import DSPClient
from repro.smartcard.card import SmartCard
from repro.smartcard.resources import LinkModel
from repro.smartcard.soe import SecureOperatingEnvironment
from repro.terminal.proxy import CardProxy


class Terminal:
    """A user terminal hosting a smart card (Figure 3).

    Applications reach it through the facade: each enrolled
    :class:`repro.community.Member` owns one terminal, and
    ``member.open(document)`` runs sessions on it.
    """

    def __init__(
        self,
        user: str,
        dsp: DSPClient,
        pki: SimulatedPKI,
        link: LinkModel | None = None,
        ram_quota: int | None = 1024,
        strict_memory: bool = True,
        registry: PolicyRegistry | None = None,
    ) -> None:
        self.user = user
        self.dsp = dsp
        self.pki = pki
        self.clock = dsp.clock
        soe = SecureOperatingEnvironment(
            ram_quota=ram_quota,
            strict_memory=strict_memory,
            clock=self.clock,
        )
        self.card = SmartCard(soe, registry=registry)
        self.proxy = CardProxy(self.card, dsp, link=link, clock=self.clock)
        self._unlocked: set[str] = set()

    def unlock_document(self, doc_id: str, owner: str) -> None:
        """Fetch + unwrap the document secret, provision the card."""
        if doc_id in self._unlocked:
            return
        wrapped = self.dsp.get_wrapped_key(doc_id, self.user)
        secret = self.pki.unwrap_secret(self.user, owner, wrapped)
        self.proxy.provision_key(doc_id, secret)
        self._unlocked.add(doc_id)
