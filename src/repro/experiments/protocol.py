"""The campaign-service wire protocol, described once.

Both sides of the wire work from :data:`ENDPOINTS` — the server
(:mod:`.service`) dispatches every request through :func:`match` and
:func:`validate` to the ``_ServiceState`` method named by the matched
entry, and the ``ServiceBackend`` client in :mod:`.backends` spells
every request with :func:`path_for` and :func:`encode` — so paths,
body fields and reply encoding exist nowhere else, and a version bump
or a new endpoint is one edit here that moves both sides at once.

The table also owns the field types, because a request body is bytes
off a socket: every refusal is a :class:`WireError` carrying the HTTP
status and a message naming the offending field, raised before
anything reaches server state.

So does the HTTP/1.1 framing, one copy for both ends: the limits, the
head reader (:func:`read_head`), the rule for a body's length
(:func:`body_length`) and the head writer (:func:`write_head`).  Both
ends read a head alike, and a refusal is a :class:`WireError` of the
status the server answers with.

``tests/test_service.py`` drives every entry over a real socket
(version gate, sorted reply bytes, typed refusals),
``tests/property/test_props_wire.py`` feeds the reader hostile bytes,
and ``tests/test_docs_links.py`` holds ``docs/operations.md`` to the
same table.
"""

from __future__ import annotations

import json
import re
import sys
import urllib.parse
from typing import Any, Callable, Dict, FrozenSet, NamedTuple, Optional, Tuple

__all__ = [
    "PROTOCOL_VERSION",
    "API_PREFIX",
    "CLAIM_WORDS",
    "ENDPOINTS",
    "Endpoint",
    "WireError",
    "path_for",
    "match",
    "decode",
    "validate",
    "encode",
    "MAX_LINE",
    "MAX_HEADERS",
    "MAX_BODY",
    "read_head",
    "body_length",
    "write_head",
]

#: Wire-protocol version; bump on any incompatible change to the
#: request/response shapes served by ``CellServer``.  Clients and
#: servers of different versions refuse each other loudly (HTTP 400
#: naming both versions).  v2: a claim can answer "done", which a v1
#: client would read as a live peer's lease and wait on forever.  v3:
#: the lease-extension endpoint went (a lease lives only while its cell
#: computes), so a v2 client is refused at its start-up probe, not in
#: the middle of a campaign.
PROTOCOL_VERSION = 3

#: Path prefix every endpoint lives under.
API_PREFIX = f"/v{PROTOCOL_VERSION}"


#: the limits both ends hold an HTTP head to (the stdlib's): bytes in
#: one line, and header lines in one head
MAX_LINE = 65536
MAX_HEADERS = 100
#: the largest body either end reads: a cell document is a few KB to a
#: few hundred KB, and nothing legitimate comes near this
MAX_BODY = 8 * 1024 * 1024


class WireError(ValueError):
    """A message the protocol refuses: the HTTP ``status`` and the
    JSON ``payload`` (``error`` plus any extra fields) to answer with."""

    def __init__(self, status: int, error: str, **extra: Any) -> None:
        super().__init__(error)
        self.status = status
        self.payload = {"error": error, **extra}


# -- field converters: the value, or ValueError saying what it must be --
#: a cell key is one path component, whatever store sits behind the
#: server (the façade's keys are sha256 hex digests)
_KEY = re.compile(r"[0-9A-Za-z_-]{1,128}")


def _key(value: Any) -> str:
    if not isinstance(value, str) or not _KEY.fullmatch(value):
        raise ValueError("must be 1-128 characters of [0-9A-Za-z_-]")
    return value


def _string(value: Any) -> str:
    if not isinstance(value, str):
        raise ValueError("must be a string")
    return value


def _text(value: Any) -> str:
    if not _string(value):
        raise ValueError("must be a non-empty string")
    return value


def _ttl(value: Any) -> float:
    # bool is an int to isinstance; the upper bound refuses inf, NaN
    # and an int too big to be a float alike.
    if (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0 < value <= sys.float_info.max
    ):
        return float(value)
    raise ValueError("must be a finite number of seconds > 0")


class Endpoint(NamedTuple):
    """One operation: ``<method> /v<n>/<resource>[/<key>]``."""

    #: the operation, and the ``_ServiceState`` method that serves it
    name: str
    method: str
    resource: str
    #: whether the path carries ``/<key>`` after the resource
    keyed: bool = False
    #: JSON body fields, each with its converter; no fields, no body
    fields: Dict[str, Callable[[Any], Any]] = {}
    #: body fields a request may leave out
    optional: FrozenSet[str] = frozenset()


_LEASE = {"key": _key, "owner": _text, "ttl": _ttl}

ENDPOINTS: Dict[str, Endpoint] = {
    op.name: op
    for op in (
        Endpoint("stats", "GET", "stats"),
        Endpoint("cells", "GET", "cells"),
        Endpoint("get", "GET", "cells", keyed=True),
        Endpoint("put", "PUT", "cells", keyed=True, fields={"value": _text}),
        Endpoint("claim", "POST", "claim", fields=_LEASE),
        Endpoint("release", "POST", "release", fields={"key": _key, "owner": _text}),
        Endpoint(
            "record_failure",
            "POST",
            "fail",
            fields={"key": _key, "owner": _text, "error": _string, "id": _string},
            optional=frozenset({"id"}),
        ),
        Endpoint("quarantine", "POST", "quarantine", fields={"key": _key}),
        Endpoint("quarantined", "GET", "quarantine"),
        Endpoint("quarantine_entry", "GET", "quarantine", keyed=True),
    )
}

_ROUTES = {(op.method, op.resource, op.keyed): op for op in ENDPOINTS.values()}

#: a claim's reply: ``{"claim": word}`` for the lease rules' YOURS, HELD
#: and QUARANTINED, or ``{"claim": "done", "value": <committed text>}``
CLAIM_WORDS = {True: "yours", False: "held", None: "quarantined"}


def path_for(name: str, key: Optional[str] = None) -> str:
    """The path of operation ``name`` (on ``key``, where it takes one)."""
    op = ENDPOINTS[name]
    path = f"{API_PREFIX}/{op.resource}"
    return f"{path}/{urllib.parse.quote(key, safe='')}" if op.keyed else path


def _malformed(op: Endpoint, field: str, what: object) -> WireError:
    return WireError(
        400,
        f"malformed request for {op.method} {API_PREFIX}/{op.resource}: "
        f"field {field!r} {what}",
    )


def _convert(op: Endpoint, field: str, convert: Callable, value: Any) -> Any:
    try:
        return convert(value)
    except ValueError as exc:
        raise _malformed(op, field, exc) from None


def match(method: str, target: str) -> Tuple[Endpoint, Dict[str, str]]:
    """The operation a request line names, with the arguments its path
    carries.

    The version gate comes first: any prefix but this version's
    (an older version's or a future one's) is refused with an error naming the
    version spoken here, so mismatched deployments fail at the first
    request.  ``target`` is a request line's: a path and any query,
    and a path that starts ``//`` is still a path, not a host.
    """
    path = target.partition("?")[0]
    if path.startswith("//"):
        path = "/" + path.lstrip("/")
    if path != API_PREFIX and not path.startswith(API_PREFIX + "/"):
        raise WireError(
            400,
            f"unsupported protocol version for path {path!r}: "
            f"this server speaks v{PROTOCOL_VERSION} "
            f"(paths under {API_PREFIX}/). Upgrade the older "
            "side so client and server agree.",
            protocol=PROTOCOL_VERSION,
        )
    parts = [
        urllib.parse.unquote(part)
        for part in path[len(API_PREFIX) :].split("/")
        if part
    ]
    op = None
    if 1 <= len(parts) <= 2:
        op = _ROUTES.get((method, parts[0], len(parts) == 2))
    if op is None:
        raise WireError(404, f"no such endpoint: {method} {target}")
    return op, ({"key": _convert(op, "key", _key, parts[1])} if op.keyed else {})


def decode(raw: bytes) -> dict:
    """A request body as the JSON object it must be (none: ``{}``)."""
    try:
        doc = json.loads(raw.decode("utf-8")) if raw else {}
    except (ValueError, RecursionError):  # bad utf-8, bad JSON, absurd JSON
        raise WireError(400, "request body is not valid JSON") from None
    if not isinstance(doc, dict):
        raise WireError(400, "request body must be a JSON object")
    return doc


def validate(op: Endpoint, doc: dict) -> Dict[str, Any]:
    """``doc``'s fields for ``op``, converted; fields the table does
    not name are ignored."""
    args = {}
    for field, convert in op.fields.items():
        if field in doc:
            args[field] = _convert(op, field, convert, doc[field])
        elif field not in op.optional:
            raise _malformed(op, field, "is missing")
    return args


def encode(doc: dict) -> str:
    """A request or reply document as wire text: sorted keys, so the
    bytes do not depend on dict construction order, and no ``NaN`` or
    ``Infinity``, which are not JSON."""
    return json.dumps(doc, sort_keys=True, allow_nan=False)


# -- HTTP/1.1 framing, for requests and replies alike --------------------
def read_head(readline: Callable[[int], bytes]) -> Optional[Tuple[str, Dict[str, str]]]:
    """One message head off a buffered stream: its start line and its
    headers (names lower-cased, a repeated name's values joined by
    ", "), or ``None`` if the stream ends first.  Refused: a start line
    over :data:`MAX_LINE` bytes (414), a header line over it or more
    than :data:`MAX_HEADERS` of them (431), and a header line with no
    colon or with whitespace around its name, as a folded one has (400).
    """
    line = readline(MAX_LINE + 1)
    if not line:
        return None
    if len(line) > MAX_LINE:
        raise WireError(414, f"start line longer than {MAX_LINE} bytes")
    start = str(line, "iso-8859-1").rstrip("\r\n")
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise WireError(431, f"header line longer than {MAX_LINE} bytes")
        if line in (b"\r\n", b"\n"):
            return start, headers
        if not line:
            return None  # the peer hung up mid-head
        text = str(line, "iso-8859-1")
        name, colon, value = text.partition(":")
        if not colon or not name or name != name.strip():
            raise WireError(400, f"malformed header line {text.rstrip()[:80]!r}")
        name, value = name.lower(), value.strip()
        headers[name] = f"{headers[name]}, {value}" if name in headers else value
    raise WireError(431, f"more than {MAX_HEADERS} header lines")


def body_length(headers: Dict[str, str], *, required: bool = False) -> int:
    """The length of the body after ``headers``: one ``Content-Length``
    of at most :data:`MAX_BODY`, or none for no body (unless
    ``required``, as a reply's is).  Anything else is refused unread,
    or its rest would be parsed as the next message: any
    ``Transfer-Encoding`` (501), a repeated length or a non-number
    (400), a length over the limit (413).
    """
    if "transfer-encoding" in headers:
        raise WireError(
            501, "Transfer-Encoding is not supported: send one Content-Length"
        )
    if "content-length" not in headers and not required:
        return 0
    value = headers.get("content-length", "")
    if "," in value:
        raise WireError(400, f"Content-Length {value[:80]!r} is repeated: send one")
    if not (value.isascii() and value.isdigit()):
        raise WireError(
            400, f"Content-Length {value[:80]!r} is not a non-negative integer"
        )
    # the digits are bytes off a socket: no int() of 65,536 of them
    digits = value.lstrip("0") or "0"
    if len(digits) > len(str(MAX_BODY)) or int(digits) > MAX_BODY:
        raise WireError(
            413, f"a body of {digits[:20]} bytes exceeds the {MAX_BODY}-byte limit"
        )
    return int(digits)


def write_head(start: str, headers: Dict[str, Any]) -> bytes:
    """The bytes of a message head: ``start``, then ``headers`` in
    their order, then the blank line.  A message is its head plus its
    body, sent in one write."""
    lines = [start, *(f"{name}: {value}" for name, value in headers.items())]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
