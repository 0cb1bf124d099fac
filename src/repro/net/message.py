"""Message envelope carried over the simulated network."""

from __future__ import annotations

import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim import Environment


class Message:
    """One application-level message.

    ``size_bytes`` is what occupies the wire (header + payload); the
    optional ``payload`` carries real Python data end-to-end so that
    correctness (read-your-writes through every cache path) is testable,
    while pure-performance workloads may leave it ``None`` and let the
    size alone drive the timing model.  Slotted, with a hand-written
    constructor: one is built per message sent.
    """

    __slots__ = (
        "kind", "size_bytes", "src", "dst", "payload", "msg_id", "reply_to"
    )

    #: Fixed protocol header charged on every message (TCP/IP + PVFS
    #: request framing), matching the granularity the paper's iod
    #: protocol uses.
    HEADER_BYTES: _t.ClassVar[int] = 64

    def __init__(
        self,
        kind: str,
        size_bytes: int,
        src: str = "",
        dst: str = "",
        payload: _t.Any = None,
        msg_id: int = 0,
        reply_to: int | None = None,
    ) -> None:
        if size_bytes < 0:
            raise ValueError(f"negative message size {size_bytes}")
        self.kind = kind
        self.size_bytes = size_bytes
        self.src = src
        self.dst = dst
        self.payload = payload
        #: Correlation id for request/response matching; 0 until the
        #: first sender draws one from its run (:meth:`stamp`).
        self.msg_id = msg_id
        self.reply_to = reply_to

    def __repr__(self) -> str:
        return (
            f"Message(kind={self.kind!r}, size_bytes={self.size_bytes}, "
            f"src={self.src!r}, dst={self.dst!r}, payload={self.payload!r}, "
            f"msg_id={self.msg_id}, reply_to={self.reply_to})"
        )

    def stamp(self, env: "Environment") -> int:
        """This message's id, drawn from ``env`` on the first call."""
        if not self.msg_id:
            self.msg_id = env.next_msg_id()
        return self.msg_id

    @property
    def wire_bytes(self) -> int:
        """Bytes that actually transit the medium."""
        return self.size_bytes + self.HEADER_BYTES

    def reply(
        self,
        kind: str,
        size_bytes: int,
        payload: _t.Any = None,
    ) -> "Message":
        """Build a response correlated to this message."""
        return Message(
            kind=kind,
            size_bytes=size_bytes,
            src=self.dst,
            dst=self.src,
            payload=payload,
            reply_to=self.msg_id,
        )
