"""One memo rule: every memo table is a bounded :class:`repro.memo.Memo`.

A miss at the bound evicts the oldest insertion, a hit reorders
nothing, and :func:`repro.memo.clear_all` empties every module-level
table.  The ``ast`` guard holds the rule to ``repro/memo.py``: no other
module of ``src/repro`` clears or pops a module-level table itself.
"""

import ast
import importlib
from pathlib import Path

import pytest

import repro.memo as memo_module
from repro.dns.zone import Zone
from repro.ecosystem.generator import WorldPlan
from repro.memo import Memo, clear_all

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Every module-level memo table, by module.
TABLES = {
    "repro.dns.name": ("_INTERNED", "_BY_TEXT"),
    "repro.dns.message": ("_RDATA_MEMO", "_RECEIVED"),
    "repro.dnssec.keys": ("_KEYS", "_SIGNATURES"),
    "repro.dnssec.validator": ("_VERIFY_MEMO",),
    "repro.scanner.serialize": ("_RDATA_MEMO",),
    "repro.resolver.exchange": ("_TEMPLATES",),
    "repro.ecosystem.world": ("_PLAN",),
}


def module_tables():
    for module, names in TABLES.items():
        for name in names:
            yield f"{module}.{name}", getattr(importlib.import_module(module), name)


def registered(table) -> bool:
    return any(table is other for other in memo_module._TABLES)


class TestTheRule:
    def test_a_miss_at_the_bound_evicts_the_oldest_insertion(self):
        memo = Memo(3)
        for key in "abc":
            assert memo.put(key, key.upper()) == key.upper()
        memo.put("d", "D")
        assert list(memo.items()) == [("b", "B"), ("c", "C"), ("d", "D")]

    def test_a_hit_reorders_nothing(self):
        memo = Memo(3)
        for key in "abc":
            memo.put(key, key)
        assert memo.get("a") == "a" and memo["a"] == "a" and "a" in memo
        assert list(memo) == ["a", "b", "c"]
        memo.put("d", "d")
        assert list(memo) == ["b", "c", "d"]

    def test_the_length_never_passes_the_bound(self):
        memo = Memo(4)
        sizes = []
        for key in range(10):
            memo.put(key, key)
            sizes.append(len(memo))
        assert sizes == [1, 2, 3, 4, 4, 4, 4, 4, 4, 4]
        assert list(memo) == [6, 7, 8, 9]

    def test_make_room_evicts_only_when_full(self):
        memo = Memo(2)
        memo.put("a", 1)
        memo.make_room()
        assert list(memo) == ["a"]
        memo.put("b", 2)
        memo.make_room()
        assert list(memo) == ["b"]

    def test_a_cleared_memo_starts_its_order_afresh(self):
        memo = Memo(2)
        for key in "abc":
            memo.put(key, key)
        memo.clear()
        for key in "def":
            memo.put(key, key)
        assert list(memo) == ["e", "f"]

    def test_clear_all_empties_every_registered_table(self):
        for name, table in module_tables():
            table.put(("test_memo", name), name)
        clear_all()
        assert memo_module._TABLES and not any(memo_module._TABLES)


class TestEveryTableIsAMemo:
    @pytest.mark.parametrize("name, table", list(module_tables()))
    def test_module_tables_are_registered_memos(self, name, table):
        assert type(table) is Memo and registered(table), name
        assert table.bound > 0

    def test_per_object_tables_are_plain_memos(self):
        zone = Zone("example")
        assert type(zone.answers) is Memo and not registered(zone.answers)
        plan = WorldPlan(profiles={})
        built = plan.zone("operator", "key", lambda: Zone("example"))
        assert plan.zone("operator", "key", lambda: Zone("other")) is built
        zones = plan.zones["operator"]
        assert type(zones) is Memo and not registered(zones)


#: Calls that make a table.
MAKERS = ("dict", "OrderedDict", "defaultdict", "table", "Memo")


def evictions(source: str):
    """Where *source* evicts from a module-level table by hand: a
    ``.clear()`` or ``.popitem(last=False)`` on a table (or a local alias
    of one), or a ``del t[next(iter(t))]`` anywhere."""
    tree = ast.parse(source)
    tables = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        value = getattr(node, "value", None)
        if isinstance(value, ast.Call):
            value = getattr(value.func, "attr", getattr(value.func, "id", None))
        if isinstance(value, (ast.Dict, ast.DictComp)) or value in MAKERS:
            tables.update(target.id for target in targets if isinstance(target, ast.Name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Name)
            and node.value.id in tables
        ):
            tables.update(target.id for target in node.targets if isinstance(target, ast.Name))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            last_false = any(
                keyword.arg == "last"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is False
                for keyword in node.keywords
            )
            if isinstance(owner, ast.Name) and owner.id in tables and (
                node.func.attr == "clear" or (node.func.attr == "popitem" and last_false)
            ):
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and "next(iter(" in ast.unparse(target.slice):
                    found.append((node.lineno, ast.unparse(node)))
    return found


class TestNoEvictionOutsideTheMemoModule:
    def test_no_module_evicts_from_a_table_by_hand(self):
        hits = [
            f"{path.relative_to(SRC)}:{line}: {code}"
            for path in sorted(SRC.rglob("*.py"))
            if path.name != "memo.py" or path.parent != SRC
            for line, code in evictions(path.read_text(encoding="utf-8"))
        ]
        assert not hits, "\n".join(hits)

    @pytest.mark.parametrize("source", [
        "_T = {}\ndef f():\n    if len(_T) > 9:\n        _T.clear()\n",
        "_T = table(9)\ndef f():\n    memo = _T\n    memo.clear()\n",
        "from collections import OrderedDict\n_T = OrderedDict()\ndef f():\n"
        "    _T.popitem(last=False)\n",
        "def f(memo):\n    del memo[next(iter(memo))]\n",
    ], ids=["clear", "alias-clear", "popitem", "del-first"])  # fmt: skip
    def test_the_guard_sees_each_hand_eviction(self, source):
        assert len(evictions(source)) == 1

    def test_the_guard_leaves_instance_tables_and_memo_calls_alone(self):
        source = (
            "_T = table(9)\n"
            "class C:\n"
            "    def f(self, key):\n"
            "        self._cache.clear()\n"
            "        self._cache.popitem(last=False)\n"
            "        _T.make_room()\n"
            "        return _T.put(key, key)\n"
        )
        assert evictions(source) == []
