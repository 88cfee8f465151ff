"""The user terminal: proxy, publisher API and session wiring.

"a terminal connected to the smart card.  It contains a proxy allowing
the applications to communicate easily with the different elements of
the architecture through an XML API independent of the underlying
protocols (JDBC, APDU)" (Section 3).
"""

from repro.terminal.api import Publisher
from repro.terminal.proxy import CardProxy, ProxyError
from repro.terminal.session import Terminal
from repro.terminal.transfer import SEQUENTIAL, TransferPolicy

__all__ = [
    "CardProxy",
    "ProxyError",
    "Publisher",
    "SEQUENTIAL",
    "Terminal",
    "TransferPolicy",
]
