"""Every public function, class and method of the package has a caller or
a test: its name appears in `src/`, `tests/` or `perfbench/` somewhere
other than the lines defining it.  The match is by bare name, so a
mention in a string (a `getattr` path, say) counts as a use.

Every option of a public function or method, a parameter with a default,
is passed by some call in `src/`, `tests/`, `perfbench/` or `bench/`, by
keyword or by position; calls match definitions by bare name too."""

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


def _options(path: Path):
    """(callee, parameter, position, line) of every parameter with a default
    in the module's public functions and public methods; position is the
    index among the positional arguments of a call (None for keyword-only),
    and a class's `__init__` is called by the class name."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            if node.name.startswith("_"):
                continue
            defs = [
                (node.name if sub.name == "__init__" else sub.name, sub, 1)
                for sub in node.body
                if isinstance(sub, ast.FunctionDef)
                and (sub.name == "__init__" or not sub.name.startswith("_"))
            ]
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            defs = [(node.name, node, 0)]
        else:
            continue
        for callee, fn, bound in defs:
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            for i in range(first, len(args)):
                yield callee, args[i].arg, i - bound, fn.lineno
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield callee, arg.arg, None, fn.lineno


def test_every_option_is_passed_somewhere():
    positional = Counter()  # callee -> most positional arguments in one call
    keywords = set()  # (callee, keyword)
    for top in SEARCHED + ("bench",):
        for path in (ROOT / top).rglob("*.py"):
            for call in ast.walk(ast.parse(path.read_text())):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in call.args)
                passed = float("inf") if starred else len(call.args)
                positional[name] = max(positional[name], passed)
                keywords.update((name, kw.arg) for kw in call.keywords)
    unset = sorted(
        f"{path.name}:{line} {callee}({param}=...)"
        for path in PACKAGE.glob("*.py")
        for callee, param, position, line in _options(path)
        if (callee, param) not in keywords and (callee, None) not in keywords
        and (position is None or positional[callee] <= position)
    )
    assert not unset, "options no call passes: " + ", ".join(unset)
