"""Wire payload bodies: one format byte, then the tagged binary value.

A frame's payload starts with the format byte ``0x02`` followed by the
payload object in the tagged binary encoding of
:mod:`repro.storage.binval`, with pickle disabled in both directions: a
frame crossed a trust boundary, so the pickle tag is refused rather than
executed.  A value outside the tagged universe cannot be encoded and
raises :class:`~repro.errors.SerializationError`; any other format byte
is a ``bad-payload`` error.

This module is one of the service-layer files allowed to touch
:mod:`json` (lint rule REP107), for :func:`canonical_blob` only: every
other server module is on the hot path and must go through these
codecs.
"""

from __future__ import annotations

import json
from typing import Any, Union

from repro.errors import ProtocolError, SerializationError
from repro.storage import binval

Buffer = Union[bytes, bytearray, memoryview]

#: The payload format byte (an empty payload has no body at all).
FORMAT_BINARY = 0x02


def encode_payload(payload: Any) -> bytes:
    """One payload body: format byte + encoded object."""
    out = bytearray(1)
    out[0] = FORMAT_BINARY
    binval.encode_into(out, payload, pickle_fallback=False)
    return bytes(out)


def decode_payload(raw: Buffer) -> Any:
    """Invert :func:`encode_payload`; raises ``bad-payload`` on garbage."""
    fmt = raw[0]
    if fmt != FORMAT_BINARY:
        raise ProtocolError(
            f"unknown payload format byte {fmt:#x}", code="bad-payload"
        )
    try:
        return binval.decode(raw[1:], allow_pickle=False)
    except SerializationError as exc:
        raise ProtocolError(
            f"undecodable payload: {exc}", code="bad-payload"
        ) from None


def canonical_blob(key: Any, value: Any) -> bytes:
    """The migration digest's canonical record encoding.

    Deliberately *stays* JSON: both ends of a digest comparison must
    produce byte-identical blobs across library versions, and the JSON
    form is the one PR 8's migrators already hash.
    """
    return json.dumps(
        [key, value], separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
