"""Late joining a broadcast carousel.

Classic data-dissemination systems repeat the stream in cycles so that
receivers may tune in at any moment.  Our chunks are independently
decryptable and positionally authenticated, which makes the carousel
almost free: a subscriber who joins mid-cycle simply waits for the
next ``header`` frame and starts there -- no state from the missed
cycle is needed, and the skip index keeps working because chunk
offsets are absolute.  A carousel cycle is one
:meth:`~repro.dissemination.channel.BroadcastChannel.broadcast_document`
call; ``Channel.broadcast(cycles=...)`` repeats it.

The carousel also demonstrates a subtle interaction with replay
protection: repeated cycles of the *same* version are accepted (the
version register checks ``<``, not ``<=``), while an attacker
injecting an older version's frames between cycles is still rejected.
"""

from __future__ import annotations

from repro.dissemination.subscriber import Subscriber


class LateJoiningSubscriber:
    """Wraps a subscriber so it only engages from the next cycle start.

    Frames arriving before the first ``header`` (the tail of the cycle
    already in progress when the user tuned in) are counted and
    discarded; once a header arrives, the inner subscriber runs a
    normal session.  After its document completes, further cycles are
    ignored (the view is already complete).
    """

    def __init__(self, subscriber: Subscriber) -> None:
        self.subscriber = subscriber
        self.joined = False
        self.frames_missed = 0

    def on_frame(self, kind: str, index: int, payload: bytes) -> None:
        if self.subscriber.state.document_done:
            return  # got a full cycle already
        if not self.joined:
            if kind != "header":
                self.frames_missed += 1
                return
            self.joined = True
        self.subscriber.on_frame(kind, index, payload)

    @property
    def view(self) -> str:
        return self.subscriber.view

    @property
    def ok(self) -> bool:
        return self.subscriber.ok
