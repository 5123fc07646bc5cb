"""Unit tests for repro.dns.name."""

import pytest

import repro.dns.name as name_module
from repro.dns.name import MAX_LABEL_LENGTH, Name, NameError_, ROOT
from repro.memo import clear_all


class TestParsing:
    def test_simple(self):
        name = Name.from_text("example.com")
        assert name.to_text() == "example.com."
        assert len(name) == 2

    def test_trailing_dot_equivalent(self):
        assert Name.from_text("example.com.") == Name.from_text("example.com")

    def test_root_forms(self):
        assert Name.from_text(".") == ROOT
        assert Name.from_text("") == ROOT
        assert ROOT.to_text() == "."
        assert ROOT.is_root()

    def test_empty_label_rejected(self):
        with pytest.raises(NameError_):
            Name.from_text("a..b")

    def test_label_too_long(self):
        with pytest.raises(NameError_):
            Name.from_text("a" * (MAX_LABEL_LENGTH + 1) + ".com")

    def test_max_label_ok(self):
        name = Name.from_text("a" * MAX_LABEL_LENGTH + ".com")
        assert len(name.labels[0]) == MAX_LABEL_LENGTH

    def test_name_too_long(self):
        label = "a" * 63
        with pytest.raises(NameError_):
            Name.from_text(".".join([label] * 5))

    def test_whitespace_stripped(self):
        assert Name.from_text("  example.com  ") == Name.from_text("example.com")


class TestCaseInsensitivity:
    def test_equality(self):
        assert Name.from_text("EXAMPLE.Com") == Name.from_text("example.com")

    def test_hash(self):
        assert hash(Name.from_text("WWW.Example.ORG")) == hash(Name.from_text("www.example.org"))

    def test_original_case_preserved(self):
        assert Name.from_text("Example.COM").to_text() == "Example.COM."


class TestRelations:
    def test_parent(self):
        assert Name.from_text("www.example.com").parent() == Name.from_text("example.com")

    def test_parent_of_root_fails(self):
        with pytest.raises(NameError_):
            ROOT.parent()

    def test_child(self):
        assert Name.from_text("example.com").child("www") == Name.from_text("www.example.com")

    def test_concatenate(self):
        prefix = Name.from_text("_dsboot.example.co.uk")
        suffix = Name.from_text("_signal.ns1.example.net")
        joined = prefix.concatenate(suffix)
        assert joined.to_text() == "_dsboot.example.co.uk._signal.ns1.example.net."

    def test_subdomain(self):
        child = Name.from_text("a.b.example.com")
        assert child.is_subdomain_of(Name.from_text("example.com"))
        assert child.is_subdomain_of(child)
        assert child.is_subdomain_of(ROOT)
        assert not child.is_subdomain_of(Name.from_text("other.com"))
        assert not Name.from_text("notexample.com").is_subdomain_of(
            Name.from_text("example.com")
        )

    def test_proper_subdomain(self):
        name = Name.from_text("example.com")
        assert not name.is_proper_subdomain_of(name)
        assert Name.from_text("www.example.com").is_proper_subdomain_of(name)

    def test_subdomain_case_insensitive(self):
        assert Name.from_text("WWW.EXAMPLE.COM").is_subdomain_of(Name.from_text("example.com"))

    def test_split(self):
        name = Name.from_text("a.b.example.com")
        assert name.split(2) == Name.from_text("example.com")
        assert name.split(0) == ROOT
        with pytest.raises(NameError_):
            name.split(9)

    def test_relativize(self):
        name = Name.from_text("www.example.com")
        assert name.relativize(Name.from_text("example.com")) == (b"www",)
        with pytest.raises(NameError_):
            name.relativize(Name.from_text("example.org"))


class TestCanonicalOrder:
    def test_rfc4034_example_order(self):
        # RFC 4034 §6.1 example ordering.
        ordered = [
            "example",
            "a.example",
            "yljkjljk.a.example",
            "Z.a.example",
            "zABC.a.EXAMPLE",
            "z.example",
        ]
        names = [Name.from_text(text) for text in ordered]
        assert sorted(names, key=lambda n: n.canonical_key()) == names

    def test_root_sorts_first(self):
        names = [Name.from_text("a"), ROOT, Name.from_text("a.a")]
        assert sorted(names, key=lambda n: n.canonical_key())[0] == ROOT

    def test_lt_operator(self):
        assert Name.from_text("a.example") < Name.from_text("z.example")


class TestWire:
    def test_to_wire(self):
        assert Name.from_text("example.com").to_wire() == b"\x07example\x03com\x00"

    def test_root_wire(self):
        assert ROOT.to_wire() == b"\x00"

    def test_canonical_wire_lowercases(self):
        assert Name.from_text("ExAmPlE.Com").to_canonical_wire() == b"\x07example\x03com\x00"

    def test_wire_length(self):
        assert Name.from_text("example.com").wire_length == 13
        assert ROOT.wire_length == 1

    def test_immutable(self):
        name = Name.from_text("example.com")
        with pytest.raises(AttributeError):
            name._labels = ()


class TestFromTextTable:
    """``from_text`` answers a repeated text from a bounded table; the
    table may never change what a caller sees."""

    @pytest.mark.parametrize("text", ["a..b", "a" * (MAX_LABEL_LENGTH + 1) + ".com", ".a"])
    def test_a_failure_fails_again_and_stores_nothing(self, text):
        for _ in range(3):
            with pytest.raises(NameError_):
                Name.from_text(text)
        assert text not in name_module._BY_TEXT

    def test_repeated_text_is_one_shared_name(self):
        first = Name.from_text("shared.example.com.")
        assert Name.from_text("shared.example.com.") is first
        assert first.labels == (b"shared", b"example", b"com")

    def test_strip_trailing_dot_and_root_forms_survive_a_repeat(self):
        for _ in range(2):
            assert Name.from_text("  example.com \n").to_text() == "example.com."
            assert Name.from_text("example.com") == Name.from_text("example.com.")
            assert Name.from_text("") is ROOT and Name.from_text(" . ") is ROOT

    def test_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(name_module._BY_TEXT, "bound", 8)
        clear_all()
        for i in range(50):
            assert Name.from_text(f"n{i}.example.").labels[0] == f"n{i}".encode()
            assert len(name_module._BY_TEXT) <= 8

    def test_query_normalisation_keeps_its_fallback_for_unparseable_names(self):
        from repro.query.service import _normalize_zone

        for _ in range(2):
            assert _normalize_zone("a..b") == "a..b."
            assert _normalize_zone("a..b.") == "a..b."
            assert _normalize_zone("Example.COM") == "Example.COM."
