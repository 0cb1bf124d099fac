"""Message envelope carried over the simulated network."""

from __future__ import annotations

import dataclasses
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim import Environment


@dataclasses.dataclass
class Message:
    """One application-level message.

    ``size_bytes`` is what occupies the wire (header + payload); the
    optional ``payload`` carries real Python data end-to-end so that
    correctness (read-your-writes through every cache path) is testable,
    while pure-performance workloads may leave it ``None`` and let the
    size alone drive the timing model.
    """

    kind: str
    size_bytes: int
    src: str = ""
    dst: str = ""
    payload: _t.Any = None
    #: Correlation id for request/response matching; 0 until the
    #: first sender draws one from its run (:meth:`stamp`).
    msg_id: int = 0
    reply_to: int | None = None

    #: Fixed protocol header charged on every message (TCP/IP + PVFS
    #: request framing), matching the granularity the paper's iod
    #: protocol uses.
    HEADER_BYTES: _t.ClassVar[int] = 64

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"negative message size {self.size_bytes}")

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
