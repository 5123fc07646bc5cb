"""Domain names.

``Name`` is an immutable sequence of labels, always absolute (rooted).
Comparisons and hashing are case-insensitive per RFC 1035 §2.3.3, and
``canonical_key`` implements the DNSSEC canonical ordering of RFC 4034 §6.1
(needed for NSEC chains and RRset canonical form).
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator, Tuple

from repro.memo import table

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255


class NameError_(ValueError):
    """Raised for malformed domain names."""


def _validate_label(label: bytes) -> bytes:
    if not label:
        raise NameError_("empty label")
    if len(label) > MAX_LABEL_LENGTH:
        raise NameError_(f"label too long ({len(label)} > {MAX_LABEL_LENGTH}): {label!r}")
    return label


@total_ordering
class Name:
    """An absolute DNS domain name.

    Instances are immutable, hashable, and compare case-insensitively.
    The root name has zero labels.

    The case-folded label tuple backing comparisons and hashing is
    computed lazily and memoised (:attr:`folded`): wire decoding builds
    hundreds of thousands of names per campaign, and eagerly lowercasing
    every label was one of the hottest allocations in the scan profile.
    """

    __slots__ = ("_labels", "_folded", "_hash", "_key", "_text", "_wire", "_layout")

    def __init__(self, labels: Iterable[bytes] = ()):
        labels = tuple(_validate_label(bytes(label)) for label in labels)
        wire_len = sum(len(label) + 1 for label in labels) + 1
        if wire_len > MAX_NAME_LENGTH:
            raise NameError_(f"name too long ({wire_len} > {MAX_NAME_LENGTH} octets)")
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_folded", None)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_text", None)
        object.__setattr__(self, "_wire", None)
        object.__setattr__(self, "_layout", None)

    def __setattr__(self, key, value):  # pragma: no cover - immutability guard
        raise AttributeError("Name is immutable")

    def __copy__(self) -> "Name":
        return self  # immutable

    def __deepcopy__(self, memo) -> "Name":
        return self  # immutable

    def __reduce__(self):
        return (Name, (self._labels,))

    # -- construction ---------------------------------------------------

    @classmethod
    def _unchecked(cls, labels: Tuple[bytes, ...]) -> "Name":
        """Fast construction from labels already known to be valid
        (wire decoding validates lengths; suffix/parent operations reuse
        labels from an existing Name)."""
        self = object.__new__(cls)
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_folded", None)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_text", None)
        object.__setattr__(self, "_wire", None)
        object.__setattr__(self, "_layout", None)
        return self

    @classmethod
    def intern(cls, labels: Tuple[bytes, ...]) -> "Name":
        """Return a shared ``Name`` for *labels*, reusing a previous
        instance when one exists.

        Wire decoding sees the same owner names over and over (every
        response repeats the question name; every zone repeats its apex),
        so interning lets the lazily-memoised folded form, hash, sort key,
        and text be computed once per distinct name instead of once per
        decode.  The table is a bounded :class:`~repro.memo.Memo`.
        """
        name = _INTERNED.get(labels)
        if name is None:
            name = _INTERNED.put(labels, cls._unchecked(labels))
        return name

    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse a textual domain name.

        Accepts both ``"example.com"`` and ``"example.com."``; the empty
        string and ``"."`` denote the root.  Escapes are not supported —
        the synthetic ecosystem never produces them.

        A text seen before is answered from a table keyed on the exact
        input (a text that raises is never stored) — a store re-spells
        the same names in every record.  A ``Name`` is immutable, so the
        shared instance also shares its memoised fold, hash, text and wire.
        """
        name = _BY_TEXT.get(text)
        if name is not None:
            return name
        key, text = text, text.strip()
        if text in ("", "."):
            return ROOT
        if text.endswith("."):
            text = text[:-1]
        labels = [part.encode("ascii") for part in text.split(".")]
        if any(not part for part in labels):
            raise NameError_(f"empty label in {text!r}")
        return _BY_TEXT.put(key, cls(labels))

    @classmethod
    def root(cls) -> "Name":
        return ROOT

    # -- views -----------------------------------------------------------

    @property
    def labels(self) -> Tuple[bytes, ...]:
        return self._labels

    @property
    def folded(self) -> Tuple[bytes, ...]:
        """Case-folded labels (lazily memoised).

        When every label is already lowercase — the overwhelmingly common
        case in the synthetic ecosystem — the original tuple is reused so
        no new label objects are allocated.
        """
        folded = self._folded
        if folded is None:
            labels = self._labels
            folded = tuple(label.lower() for label in labels)
            if folded == labels:
                folded = labels
            object.__setattr__(self, "_folded", folded)
        return folded

    def to_text(self) -> str:
        """Return the absolute textual form (always with trailing dot).

        Memoised: names are interned all over the scanner and store hot
        paths (shard routing, serialisation, skip-sets), so the textual
        form is computed once per instance.
        """
        text = self._text
        if text is None:
            if not self._labels:
                text = "."
            else:
                text = ".".join(label.decode("ascii") for label in self._labels) + "."
            object.__setattr__(self, "_text", text)
        return text

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Name({self.to_text()!r})"

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._labels)

    @property
    def wire_length(self) -> int:
        """Length of the uncompressed wire encoding in octets."""
        return len(self.to_wire())

    def suffix_layout(self) -> Tuple[Tuple[Tuple[bytes, ...], int], ...]:
        """``((folded suffix, octet offset), ...)`` for every label position.

        This is the compression-table view of the name: suffix *i* starts
        ``offset`` octets into the uncompressed encoding.  Memoised so the
        wire writer never re-slices folded label tuples per message
        (previously the hottest allocation in encoding)."""
        layout = self._layout
        if layout is None:
            folded = self.folded
            entries = []
            offset = 0
            for i, label in enumerate(self._labels):
                entries.append((folded[i:], offset))
                offset += 1 + len(label)
            layout = tuple(entries)
            object.__setattr__(self, "_layout", layout)
        return layout

    # -- relations ---------------------------------------------------------

    def is_root(self) -> bool:
        return not self._labels

    def parent(self) -> "Name":
        """The name with the leftmost label removed."""
        if not self._labels:
            raise NameError_("the root has no parent")
        return Name.intern(self._labels[1:])

    def child(self, label: str | bytes) -> "Name":
        """Prefix one label (textual or raw) to this name."""
        if isinstance(label, str):
            label = label.encode("ascii")
        return Name((label,) + self._labels)

    def concatenate(self, suffix: "Name") -> "Name":
        """Append *suffix*'s labels after this name's labels."""
        return Name(self._labels + suffix._labels)

    def relativize(self, origin: "Name") -> Tuple[bytes, ...]:
        """Return this name's labels with *origin* stripped from the end.

        Raises :class:`NameError_` if this name is not under *origin*.
        """
        if not self.is_subdomain_of(origin):
            raise NameError_(f"{self} is not a subdomain of {origin}")
        count = len(self._labels) - len(origin._labels)
        return self._labels[:count]

    def is_subdomain_of(self, other: "Name") -> bool:
        """True if *self* equals *other* or lies beneath it."""
        n = len(other._labels)
        if n > len(self._labels):
            return False
        return n == 0 or self.folded[-n:] == other.folded

    def is_proper_subdomain_of(self, other: "Name") -> bool:
        return self != other and self.is_subdomain_of(other)

    def split(self, depth: int) -> "Name":
        """Return the suffix of this name with *depth* labels (e.g.
        ``Name.from_text("a.b.example.com").split(2)`` is ``example.com.``)."""
        if depth > len(self._labels):
            raise NameError_(f"depth {depth} exceeds {len(self._labels)} labels")
        if depth == 0:
            return ROOT
        if depth == len(self._labels):
            return self
        return Name.intern(self._labels[-depth:])

    # -- ordering / hashing --------------------------------------------------

    def canonical_key(self) -> Tuple[bytes, ...]:
        """Sort key implementing RFC 4034 §6.1 canonical name order:
        compare label-by-label starting from the rightmost (root-most)
        label, case folded.  Memoised — scan lists, NSEC chains, and the
        sampling policy sort by this key constantly."""
        key = self._key
        if key is None:
            key = tuple(reversed(self.folded))
            object.__setattr__(self, "_key", key)
        return key

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, Name):
            return NotImplemented
        if self._labels == other._labels:
            return True
        return self.folded == other.folded

    def __lt__(self, other: "Name") -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self.canonical_key() < other.canonical_key()

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.folded)
            object.__setattr__(self, "_hash", h)
        return h

    # -- wire -----------------------------------------------------------------

    def to_wire(self) -> bytes:
        """Uncompressed wire encoding (memoised; for canonical forms and
        digests, labels are lowercased per RFC 4034 §6.2 by
        :meth:`to_canonical_wire`)."""
        wire = self._wire
        if wire is None:
            out = bytearray()
            for label in self._labels:
                out.append(len(label))
                out += label
            out.append(0)
            wire = bytes(out)
            object.__setattr__(self, "_wire", wire)
        return wire

    def to_canonical_wire(self) -> bytes:
        """Wire encoding with labels lowercased (RFC 4034 §6.2)."""
        folded = self.folded
        if folded is self._labels:
            return self.to_wire()
        out = bytearray()
        for label in folded:
            out.append(len(label))
            out += label
        out.append(0)
        return bytes(out)


_INTERNED = table(1 << 16)  # labels -> Name, for intern
_BY_TEXT = table(1 << 16)  # exact input text -> Name, for from_text

ROOT = Name()
