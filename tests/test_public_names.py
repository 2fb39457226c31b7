"""Every public function, class and method of the package has a caller or
a test: code in `src/`, `tests/` or `perfbench/` reaches it.  A top-level
function or class is reached by its bare name, a method only by an
attribute access; a string constant that is a whole dotted path, as the
tracer's `"CoverSystem.v_cell"`, reaches every name along it, so a
`getattr` path counts as a use and prose does not.  A mention inside a
function of the same name (a method calling its namesake on another
object, or itself) reaches nothing.  The names that only tests reach are a
frozen list, so a new one is added on purpose.  For that list the tracer,
`perfbench/tracing.py`, is left out: it wraps the names its dotted paths
spell and calls none of them, so a name only it spells is reached only by
tests.

Every option of a public function or method, a parameter with a default,
is passed by some call in `src/`, `bench/` or `perfbench/`, by keyword or by
position; calls match definitions by bare name too.  A setting that only
tests change is a constant, not an option.  The options of the names that
only tests reach are left out, since no production call can pass them."""

import ast
import re
from collections import Counter
from pathlib import Path

THIS = Path(__file__).resolve()
ROOT = THIS.parents[1]
PACKAGE = ROOT / "src" / "factorlift"
SEARCHED = ("src", "tests", "perfbench")
PRODUCTION = ("src", "bench", "perfbench")
TRACER = ROOT / "perfbench" / "tracing.py"
DOTTED_PATH = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public_definitions(path: Path):
    """(name, line, whether a method) of the module's public top-level
    functions and classes and of the public methods of its classes."""
    for node in ast.parse(path.read_text()).body:
        for sub in [node] + (node.body if isinstance(node, ast.ClassDef) else []):
            if isinstance(sub, (ast.FunctionDef, ast.ClassDef)) and not sub.name.startswith("_"):
                yield sub.name, sub.lineno, sub is not node


def _mentions(path: Path) -> tuple[Counter, Counter]:
    """(bare names, attribute names) that the module's code mentions outside
    a function of the same name; the names along a string constant that is
    a whole dotted path, docstrings aside, count as attribute names."""
    tree = ast.parse(path.read_text())
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef) + FUNCTIONS)
        and ast.get_docstring(node, clean=False) is not None
    }
    names, attributes = Counter(), Counter()

    def visit(node, enclosing):
        if isinstance(node, FUNCTIONS):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            names.update({node.id} - enclosing)
        elif isinstance(node, ast.Attribute):
            attributes.update({node.attr} - enclosing)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings and DOTTED_PATH.fullmatch(node.value):
                attributes.update(set(node.value.split(".")) - enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return names, attributes


def _named_only_where_defined(tops, skip=()) -> dict[str, str]:
    """{name: "module.py:line"} of the public names that the code of the
    `.py` files under `tops`, this file and `skip` aside, never reaches."""
    names, attributes = Counter(), Counter()
    for top in tops:
        for path in (ROOT / top).rglob("*.py"):
            if path != THIS and path not in skip:
                bare, attrs = _mentions(path)
                names.update(bare)
                attributes.update(attrs)
    where = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, lineno, method in _public_definitions(path):
            if not attributes[name] and (method or not names[name]):
                where.setdefault(name, f"{path.name}:{lineno}")
    return where


def test_every_public_name_is_used_outside_its_definition():
    found = _named_only_where_defined(SEARCHED)
    unused = sorted(f"{where} {name}" for name, where in found.items())
    assert not unused, "named only where defined: " + ", ".join(unused)


# public names that no code in src/, bench/ or perfbench/ calls, by reason
TEST_ONLY = {
    # U, the l1 isometry law and the factor map pi
    "apply_universal", "norm1", "apply",
    # the scalar multiple on the right of the U/pi law test
    "scale",
    # the level-k cells that the select_children laws filter as their reference
    "mesh",
    # the shipped Cantor transducers, which the Cantor-space copy of N^N is to run
    "shift_transducer", "odometer_transducer", "substitution_transducer",
    "block_transducer", "constant_transducer",
    # example point maps that the lift and family tests build on
    "identity_map", "stream_map", "table_map", "product_map", "baire_identity_map",
    # the only input that drives the Baire lift's point-region (slack-0) path
    "constant_interval_map",
    # the layout encoders that the decode round trips draw indices through
    "encode_ray", "encode_cycle",
    # references that tests compare the lifts against
    "evaluate_transducer", "component_map",
    # references that tests compare the packed ball test and the interval
    # rules against
    "in_unit_ball", "hull",
    # the presentation over unbounded branching, which the read rule that
    # strictly nested cells need is to extend
    "CylinderPresentation",
    # the factor projections' surjectivity witness
    "projection_preimage",
    # the presentation laws of a presentation over unbounded branching
    "presentation_certificate",
    # the one-line verdict of a certificate tree
    "summary_line",
    # the Baire lift's value on one branch, which the walk laws read
    "output",
}


def test_names_only_tests_reach_are_the_listed_ones():
    found = _named_only_where_defined(PRODUCTION, skip=(TRACER,))
    new = sorted(f"{found[name]} {name}" for name in set(found) - TEST_ONLY)
    called = sorted(TEST_ONLY - set(found))
    assert not new and not called, (
        f"reached only by tests, not listed: {new}; listed, but now called: {called}"
    )


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
    for top in PRODUCTION:
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
        if callee not in TEST_ONLY
        and (callee, param) not in keywords and (callee, None) not in keywords
        and (position is None or positional[callee] <= position)
    )
    assert not unset, "options no call passes: " + ", ".join(unset)
