"""Selective data dissemination (the paper's push scenario).

"our approach can support push-based scenarios (e.g., selective data
dissemination) in a very similar way" (Section 2) -- and the second
demo application is "the selective dissemination of multimedia streams
through unsecured channels" (Section 3).

A publisher broadcasts one encrypted chunk stream over an unsecured
channel; every subscriber's card filters it against the subscriber's
own access rules.  There is no backchannel, so skipping cannot save
*broadcast* bandwidth -- but a subscriber's terminal still drops the
chunks its card does not need, saving the card link and decryption
time, which is what makes real-time rates reachable (E7).

:class:`BroadcastChannel` carries the frames (one carousel cycle per
:meth:`~BroadcastChannel.broadcast_document`); each :class:`Subscriber`
drives its card through the same
:class:`~repro.terminal.proxy.CardProxy` a pull uses.  The head-end's
one-pass preview of every subscriber's view is
:func:`~repro.core.multicast.multicast_view_texts`.
"""

from repro.dissemination.carousel import LateJoiningSubscriber
from repro.dissemination.channel import BroadcastChannel
from repro.dissemination.subscriber import Subscriber

__all__ = [
    "BroadcastChannel",
    "LateJoiningSubscriber",
    "Subscriber",
]
