"""Flux message protocol (RFC 3 analogue).

Three message classes are modelled: *requests* (routed to a service on
a destination rank), *responses* (routed back to the requester, matched
by matchtag) and *events* (sequenced at rank 0 and broadcast to all
brokers). Payloads are JSON-compatible dicts.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

_matchtag_counter = itertools.count(1)


class CachedSizeDict(dict):
    """A payload dict that memoises its own wire-size estimate.

    For write-once payloads that are retained and re-priced many times
    — telemetry samples sit in a node agent's ring buffer and get
    re-walked by :func:`estimate_payload_bytes` at every aggregation
    that ships them. The cache lives *on the object*, so its lifetime
    is exactly the dict's and no global registry can go stale. Only
    use for dicts that are never mutated after their first estimate;
    the first walk is identical to a plain dict's, so the cache can
    never change an estimate, only skip recomputing it.
    """

    __slots__ = ("_size_cache",)


def estimate_payload_bytes(payload: Any) -> int:
    """Cheap wire-size estimate of a JSON-compatible payload.

    Counts container overhead plus per-leaf costs without serialising;
    accurate to tens of percent against real JSON, which is all the
    bandwidth model needs. Cost is O(leaves) — dominated by the same
    telemetry responses whose transfer time it prices — except that
    :class:`CachedSizeDict` payloads (telemetry samples) are walked
    once and memoised, so an aggregate response re-prices each sample
    at O(1) instead of re-walking it at every tree level.
    """
    if payload is None or isinstance(payload, bool):
        return 4
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, str):
        return len(payload) + 2
    if isinstance(payload, dict):
        size = getattr(payload, "_size_cache", None)
        if size is not None:
            return size
        size = 2 + sum(
            len(str(k)) + 3 + estimate_payload_bytes(v) for k, v in payload.items()
        )
        if isinstance(payload, CachedSizeDict):
            payload._size_cache = size
        return size
    if isinstance(payload, (list, tuple)):
        return 2 + sum(estimate_payload_bytes(v) for v in payload)
    return 16  # unknown scalar


class MessageType(enum.Enum):
    REQUEST = "request"
    RESPONSE = "response"
    EVENT = "event"


class FluxRPCError(RuntimeError):
    """An RPC returned a nonzero ``errnum``.

    Attributes
    ----------
    errnum:
        POSIX-style error number set by the responding service.
    topic:
        The request topic that failed.
    """

    def __init__(self, topic: str, errnum: int, errmsg: str = "") -> None:
        super().__init__(f"rpc {topic!r} failed: errnum={errnum} {errmsg}".strip())
        self.topic = topic
        self.errnum = errnum
        self.errmsg = errmsg


class RPCTimeoutError(FluxRPCError):
    """An RPC ran out of retry attempts without ever seeing a response.

    Reported locally by :meth:`repro.flux.module.Module.gather` as the
    leg's outcome (there is no response message to carry an errnum); uses POSIX
    ``ETIMEDOUT`` (110) so callers can treat it like any RPC failure.
    """

    def __init__(self, topic: str, dst_rank: int, attempts: int) -> None:
        super().__init__(
            topic,
            110,
            f"no response from rank {dst_rank} after {attempts} attempt(s)",
        )
        self.dst_rank = dst_rank
        self.attempts = attempts


@dataclass
class Message:
    """One message on the overlay network."""

    msg_type: MessageType
    topic: str
    payload: Dict[str, Any] = field(default_factory=dict)
    src_rank: int = 0
    dst_rank: Optional[int] = None  # None for events (broadcast)
    matchtag: int = 0
    errnum: int = 0
    errmsg: str = ""
    #: Event sequence number, assigned by rank 0 when sequencing events.
    seq: Optional[int] = None
    #: Cached :meth:`size_bytes` result; payloads are write-once after
    #: the message is transmitted, so the estimate never changes.
    _size_cache: Optional[int] = field(default=None, repr=False, compare=False)

    def size_bytes(self) -> int:
        """Estimated wire size (headers + payload)."""
        size = self._size_cache
        if size is None:
            size = 64 + estimate_payload_bytes(self.payload)
            self._size_cache = size
        return size

    @staticmethod
    def new_matchtag() -> int:
        """Allocate a process-unique matchtag for request/response pairing."""
        return next(_matchtag_counter)

    def make_response(
        self,
        payload: Optional[Dict[str, Any]] = None,
        errnum: int = 0,
        errmsg: str = "",
    ) -> "Message":
        """Build the response message for this request."""
        if self.msg_type is not MessageType.REQUEST:
            raise ValueError("can only respond to a request")
        return Message(
            msg_type=MessageType.RESPONSE,
            topic=self.topic,
            payload=payload or {},
            src_rank=self.dst_rank if self.dst_rank is not None else 0,
            dst_rank=self.src_rank,
            matchtag=self.matchtag,
            errnum=errnum,
            errmsg=errmsg,
        )
