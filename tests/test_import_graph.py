"""Every module under ``src/repro`` has a job on the loop.

A module passes if another ``src`` module imports it, if it is an entry
point, or if it is an oracle listed below with the tests that compare
the loop against it.  An import through a package counts for the module
the imported name comes from (``from repro.agent import Agent`` uses
``repro.agent.plane``); a package's ``__init__`` re-exporting one of its
own modules is not a use unless the ``__init__``'s own code reads the
name.  Code that none of these reach is deleted, not kept "for later".
Pure ``ast``: nothing under ``src`` is imported to check it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ENTRY_POINTS = {"repro.cli"}  # the ``repro-dnssec`` console script

# Modules no loop path imports, kept because tests check the loop
# against them.  A module that gains a ``src`` caller leaves this list.
ORACLES = {
    "repro.dnssec.denial": "checks the server's NSEC/NSEC3 proofs "
    "(tests/test_denial.py, tests/test_nsec3_serving.py)",
    "repro.resolver.validating": "the scanner's independent oracle (tests/test_oracle.py)",
}


def _parse():
    """{dotted module name: (its ast, is a package __init__)} under src/."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        init = parts[-1] == "__init__"
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found[".".join(parts[:-1] if init else parts)] = (tree, init)
    return found


def _imports(name, init, tree):
    """(module, {bound name: imported name}, at top level) for every
    import in *tree*, relative ones resolved against module *name*."""
    package = name if init else name.rpartition(".")[0]
    top = set(map(id, tree.body))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join([*anchor, *filter(None, [base])])
            names = {alias.asname or alias.name: alias.name for alias in node.names}
            yield base, names, id(node) in top
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, {}, id(node) in top


def _users():
    """{non-``__init__`` module: the src modules that use it}."""
    modules = _parse()
    # Per package: a name its __init__ imports → the module it came from.
    exports = {
        name: {
            bound: base
            for base, names, top in _imports(name, True, tree)
            if top and base != name
            for bound in names
        }
        for name, (tree, init) in modules.items()
        if init
    }

    def source(base, imported):
        """The module that *imported*, taken from module *base*, lives in."""
        if f"{base}.{imported}" in modules:
            return f"{base}.{imported}"
        while base in exports and imported in exports[base]:
            base = exports[base][imported]
        return base

    users = {name: set() for name, (_, init) in modules.items() if not init}
    for name, (tree, init) in modules.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for base, names, top in _imports(name, init, tree):
            if init and top and base.startswith(name + ".") and not read & set(names):
                continue  # a package re-exporting its own module, unused in it
            for target in {source(base, each) for each in names.values()} | {base}:
                if target in users and target != name:
                    users[target].add(name)
    return users


def test_every_module_has_a_job():
    jobless = sorted(
        name
        for name, importers in _users().items()
        if not importers and name not in ENTRY_POINTS and name not in ORACLES
    )
    assert not jobless, f"no src module imports {jobless}: give each a caller or delete it"


def test_oracles_are_exactly_the_unimported():
    users = _users()
    for name, reason in ORACLES.items():
        assert name in users, f"ORACLES names {name}, which does not exist"
        assert reason
        assert not users[name], f"{name} is imported by {sorted(users[name])}: drop it from ORACLES"
