"""Every public function, class and method of the package has a caller or
a test: its name appears in `src/`, `tests/` or `perfbench/` somewhere
other than the lines defining it.  The match is by bare name, so a
mention in a string (a `getattr` path, say) counts as a use."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "factorlift"
SEARCHED = ("src", "tests", "perfbench")
WORD = re.compile(r"[A-Za-z_]\w*")


def _public_definitions(path: Path):
    """(name, line) of the module's public top-level functions and classes
    and of the public methods of its classes."""
    for node in ast.parse(path.read_text()).body:
        for sub in [node] + (node.body if isinstance(node, ast.ClassDef) else []):
            if isinstance(sub, (ast.FunctionDef, ast.ClassDef)) and not sub.name.startswith("_"):
                yield sub.name, sub.lineno


def test_every_public_name_is_used_outside_its_definition():
    mentions = Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            mentions.update(WORD.findall(path.read_text()))
    defined = Counter()
    where = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        for name, lineno in _public_definitions(path):
            defined[name] += WORD.findall(lines[lineno - 1]).count(name)
            where.setdefault(name, f"{path.name}:{lineno}")
    unused = sorted(f"{where[name]} {name}" for name in defined if mentions[name] <= defined[name])
    assert not unused, "named only where defined: " + ", ".join(unused)
