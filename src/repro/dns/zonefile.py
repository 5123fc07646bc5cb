"""Master-file (RFC 1035 §5) zone parsing and serialisation.

Supports the subset of the presentation format this project's record
types need: ``$ORIGIN`` / ``$TTL`` directives, relative and absolute
owner names, per-record TTL/class, comments, and parenthesised
continuation lines (common around SOA and DNSKEY records).

Round trip: ``parse_zone(zone.to_text())`` reproduces the zone.
"""

from __future__ import annotations

import base64
from typing import Callable, Dict, List, Optional, Tuple

from repro.dns.name import Name
from repro.dns.rdata import (
    A,
    AAAA,
    CDNSKEY,
    CDS,
    CNAME,
    CSYNC,
    DNSKEY,
    DS,
    GenericRdata,
    MX,
    NS,
    NSEC,
    NSEC3,
    NSEC3PARAM,
    PTR,
    RRSIG,
    SOA,
    TXT,
    Rdata,
)
from repro.dns.types import RClass, RRType
from repro.dns.zone import Zone


class ZoneFileError(ValueError):
    """Raised for malformed master-file input."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def _abs(token: str, origin: Name) -> Name:
    """Resolve a possibly-relative name token against the origin."""
    if token == "@":
        return origin
    if token.endswith("."):
        return Name.from_text(token)
    return Name.from_text(token).concatenate(origin)


def _parse_a(fields: List[str], origin: Name) -> Rdata:
    return A(fields[0])


def _parse_aaaa(fields: List[str], origin: Name) -> Rdata:
    return AAAA(fields[0])


def _parse_ns(fields: List[str], origin: Name) -> Rdata:
    return NS(_abs(fields[0], origin))


def _parse_cname(fields: List[str], origin: Name) -> Rdata:
    return CNAME(_abs(fields[0], origin))


def _parse_ptr(fields: List[str], origin: Name) -> Rdata:
    return PTR(_abs(fields[0], origin))


def _parse_mx(fields: List[str], origin: Name) -> Rdata:
    return MX(int(fields[0]), _abs(fields[1], origin))


def _parse_soa(fields: List[str], origin: Name) -> Rdata:
    if len(fields) != 7:
        raise ValueError(f"SOA needs 7 fields, got {len(fields)}")
    return SOA(
        _abs(fields[0], origin),
        _abs(fields[1], origin),
        *(int(value) for value in fields[2:7]),
    )


def _parse_txt(fields: List[str], origin: Name) -> Rdata:
    strings = []
    for field in fields:
        if field.startswith('"') and field.endswith('"') and len(field) >= 2:
            field = field[1:-1]
        strings.append(field)
    return TXT(strings)


def _parse_ds_like(cls):
    def parse(fields: List[str], origin: Name) -> Rdata:
        key_tag, algorithm, digest_type = int(fields[0]), int(fields[1]), int(fields[2])
        digest_hex = "".join(fields[3:])
        digest = b"" if digest_hex in ("", "0", "00") and algorithm == 0 else bytes.fromhex(digest_hex)
        if not digest and digest_hex in ("0", "00"):
            digest = b"\x00"
        return cls(key_tag, algorithm, digest_type, digest)

    return parse


def _parse_dnskey_like(cls):
    def parse(fields: List[str], origin: Name) -> Rdata:
        flags, protocol, algorithm = int(fields[0]), int(fields[1]), int(fields[2])
        key = base64.b64decode("".join(fields[3:])) if len(fields) > 3 else b""
        return cls(flags, protocol, algorithm, key)

    return parse


def _parse_rrsig(fields: List[str], origin: Name) -> Rdata:
    return RRSIG(
        RRType.from_text(fields[0]),
        int(fields[1]),
        int(fields[2]),
        int(fields[3]),
        int(fields[4]),
        int(fields[5]),
        int(fields[6]),
        _abs(fields[7], origin),
        base64.b64decode("".join(fields[8:])),
    )


def _parse_nsec(fields: List[str], origin: Name) -> Rdata:
    return NSEC(_abs(fields[0], origin), [RRType.from_text(t) for t in fields[1:]])


def _parse_nsec3param(fields: List[str], origin: Name) -> Rdata:
    salt = b"" if fields[3] == "-" else bytes.fromhex(fields[3])
    return NSEC3PARAM(int(fields[0]), int(fields[1]), int(fields[2]), salt)


def _parse_nsec3(fields: List[str], origin: Name) -> Rdata:
    from repro.dnssec.nsec import nsec3_label_to_hash

    salt = b"" if fields[3] == "-" else bytes.fromhex(fields[3])
    next_hashed = nsec3_label_to_hash(fields[4].encode("ascii"))
    types = [RRType.from_text(t) for t in fields[5:]]
    return NSEC3(int(fields[0]), int(fields[1]), int(fields[2]), salt, next_hashed, types)


def _parse_csync(fields: List[str], origin: Name) -> Rdata:
    return CSYNC(int(fields[0]), int(fields[1]), [RRType.from_text(t) for t in fields[2:]])


def _parse_generic(rrtype: RRType):
    def parse(fields: List[str], origin: Name) -> Rdata:
        # RFC 3597 \# syntax: "\# <len> <hex>"
        if fields and fields[0] == "\\#":
            length = int(fields[1])
            data = bytes.fromhex("".join(fields[2:]))
            if len(data) != length:
                raise ValueError(f"\\# length mismatch: {len(data)} != {length}")
            return GenericRdata(rrtype, data)
        raise ValueError(f"no text parser for type {rrtype.name}")

    return parse


_PARSERS: Dict[int, Callable[[List[str], Name], Rdata]] = {
    int(RRType.A): _parse_a,
    int(RRType.AAAA): _parse_aaaa,
    int(RRType.NS): _parse_ns,
    int(RRType.CNAME): _parse_cname,
    int(RRType.PTR): _parse_ptr,
    int(RRType.MX): _parse_mx,
    int(RRType.SOA): _parse_soa,
    int(RRType.TXT): _parse_txt,
    int(RRType.DS): _parse_ds_like(DS),
    int(RRType.CDS): _parse_ds_like(CDS),
    int(RRType.DNSKEY): _parse_dnskey_like(DNSKEY),
    int(RRType.CDNSKEY): _parse_dnskey_like(CDNSKEY),
    int(RRType.RRSIG): _parse_rrsig,
    int(RRType.NSEC): _parse_nsec,
    int(RRType.NSEC3): _parse_nsec3,
    int(RRType.NSEC3PARAM): _parse_nsec3param,
    int(RRType.CSYNC): _parse_csync,
}


def parse_rdata(rrtype: RRType, text: str, origin: Name = Name.root()) -> Rdata:
    """Parse one rdata presentation string for *rrtype*."""
    fields = _split_preserving_quotes(text)
    parser = _PARSERS.get(int(rrtype), _parse_generic(rrtype))
    return parser(fields, origin)


def _scan_line(raw: str, number: int) -> Tuple[str, int]:
    """Strip the ; comment and replace grouping parentheses with spaces,
    all quote-aware (parens and semicolons inside "..." are data).
    Returns (processed line, parenthesis depth delta)."""
    out = []
    in_quote = False
    delta = 0
    for char in raw:
        if char == '"':
            in_quote = not in_quote
            out.append(char)
        elif not in_quote and char == ";":
            break
        elif not in_quote and char == "(":
            delta += 1
            out.append(" ")
        elif not in_quote and char == ")":
            delta -= 1
            out.append(" ")
        else:
            out.append(char)
    if in_quote:
        raise ZoneFileError("unterminated quoted string", number)
    return "".join(out), delta


def _logical_lines(text: str):
    """Yield (line_number, content) with parenthesised groups joined."""
    pending = ""
    pending_start = 0
    depth = 0
    for number, raw in enumerate(text.splitlines(), start=1):
        line, delta = _scan_line(raw, number)
        depth += delta
        if depth < 0:
            raise ZoneFileError("unbalanced closing parenthesis", number)
        if pending:
            pending += " " + line
        else:
            pending = line
            pending_start = number
        if depth == 0:
            if pending.strip():
                yield pending_start, pending
            pending = ""
    if depth != 0:
        raise ZoneFileError("unbalanced opening parenthesis", pending_start)
    if pending.strip():
        yield pending_start, pending


def _split_preserving_quotes(line: str) -> List[str]:
    """Tokenise, keeping quoted strings (with spaces) as single tokens."""
    if '"' not in line:
        return line.split()  # same whitespace rule as the loop below
    tokens: List[str] = []
    current = ""
    in_quote = False
    for char in line:
        if char == '"':
            in_quote = not in_quote
            current += char
        elif char.isspace() and not in_quote:
            if current:
                tokens.append(current)
                current = ""
        else:
            current += char
    if current:
        tokens.append(current)
    return tokens


def parse_zone(text: str, origin: Optional[Name | str] = None, default_ttl: int = 3600) -> Zone:
    """Parse a master-file into a :class:`Zone`.

    *origin* may come from a ``$ORIGIN`` directive in the file instead.
    """
    if isinstance(origin, str):
        origin = Name.from_text(origin)
    zone: Optional[Zone] = None
    current_origin = origin
    ttl = default_ttl
    last_owner: Optional[Name] = None
    entries: List[Tuple[int, Name, int, RRType, List[str]]] = []

    for number, line in _logical_lines(text):
        tokens = _split_preserving_quotes(line)
        if not tokens:
            continue
        if tokens[0] == "$ORIGIN":
            current_origin = Name.from_text(tokens[1])
            continue
        if tokens[0] == "$TTL":
            ttl = int(tokens[1])
            continue
        if tokens[0].startswith("$"):
            raise ZoneFileError(f"unsupported directive {tokens[0]}", number)
        if current_origin is None:
            raise ZoneFileError("no origin known (pass origin= or use $ORIGIN)", number)

        index = 0
        if line[0].isspace():
            owner = last_owner
            if owner is None:
                raise ZoneFileError("continuation line with no previous owner", number)
        else:
            owner = _abs(tokens[0], current_origin)
            index = 1
        record_ttl = ttl
        rclass = RClass.IN
        # TTL and class may appear in either order before the type.
        while index < len(tokens):
            token = tokens[index]
            if token.isdigit():
                record_ttl = int(token)
                index += 1
            elif token.upper() in ("IN", "CH", "HS"):
                rclass = RClass[token.upper()]
                index += 1
            else:
                break
        if index >= len(tokens):
            raise ZoneFileError("missing record type", number)
        try:
            rrtype = RRType.from_text(tokens[index])
        except ValueError as exc:
            raise ZoneFileError(str(exc), number) from None
        rdata_fields = tokens[index + 1 :]
        last_owner = owner
        entries.append((number, owner, record_ttl, rrtype, rdata_fields))

    if current_origin is None:
        raise ZoneFileError("zone file contains no records and no $ORIGIN")
    zone = Zone(current_origin if origin is None else origin)
    for number, owner, record_ttl, rrtype, fields in entries:
        try:
            rdata = parse_rdata(rrtype, " ".join(fields), zone.origin)
        except (ValueError, IndexError) as exc:
            raise ZoneFileError(f"bad {rrtype.name} rdata: {exc}", number) from None
        try:
            zone.add(owner, record_ttl, rdata)
        except ValueError as exc:
            raise ZoneFileError(str(exc), number) from None
    return zone
