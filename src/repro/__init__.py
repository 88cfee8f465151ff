"""repro -- Safe Data Sharing and Data Dissemination on Smart Devices.

A full Python reproduction of Bouganim, Cremarenco, Dang Ngoc, Dieu,
Pucheral (SIGMOD 2005): client-based access control for XML documents
evaluated inside a smart-card Secure Operating Environment, with a
streaming non-deterministic-automata rule engine, an embedded skip
index, chunked authenticated encryption, a DSP, a terminal proxy and
the two demo applications (collaborative sharing and selective
dissemination).

Quickstart (the full architecture, through the facade)::

    from repro import Community

    community = Community()
    owner = community.enroll("owner")
    doctor = community.enroll("doctor")
    doc = owner.publish(xml_text,
                        [("+", "doctor", "//patient"),
                         ("-", "doctor", "//billing")],
                        to=[doctor])
    with doctor.open(doc) as session:
        print(session.query().text())

The streaming rule engine is also usable on its own::

    from repro import AccessRule, RuleSet, authorized_view
    from repro.xmlstream import parse_string, write_string

    rules = RuleSet([AccessRule.parse("+", "doctor", "//patient"),
                     AccessRule.parse("-", "doctor", "//billing")])
    view = authorized_view(parse_string(xml_text), rules, "doctor")
    print(write_string(view))

See ``examples/`` for the full smart-card architecture in action and
:mod:`repro.errors` for the exception taxonomy.
"""

from repro.community import (
    Channel,
    Community,
    Document,
    Member,
    Session,
    ViewStream,
)
from repro.core import (
    AccessController,
    AccessRule,
    CompiledPolicy,
    MultiSubjectEvaluator,
    PolicyRegistry,
    RuleSet,
    Sign,
    Subject,
    ViewMode,
    authorized_view,
    compile_policy,
    multicast_views,
    reference_view,
)
from repro.errors import (
    AccessDenied,
    DocumentLocked,
    KeyNotGranted,
    PolicyError,
    ReproError,
    ResourceExhausted,
    TamperDetected,
    TransportError,
)
from repro.skipindex import IndexMode
from repro.smartcard import PendingStrategy, SmartCard

__version__ = "1.2.0"

__all__ = [
    "AccessController",
    "AccessDenied",
    "AccessRule",
    "Channel",
    "Community",
    "CompiledPolicy",
    "Document",
    "DocumentLocked",
    "IndexMode",
    "KeyNotGranted",
    "Member",
    "MultiSubjectEvaluator",
    "PendingStrategy",
    "PolicyError",
    "PolicyRegistry",
    "ReproError",
    "ResourceExhausted",
    "RuleSet",
    "Session",
    "Sign",
    "SmartCard",
    "Subject",
    "TamperDetected",
    "TransportError",
    "ViewMode",
    "ViewStream",
    "authorized_view",
    "compile_policy",
    "multicast_views",
    "reference_view",
    "__version__",
]
