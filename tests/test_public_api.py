"""Every public function and class of the package has a caller outside tests.

A module-level public name counts as called when the package itself names
it (beyond its definition) or when the benchmark's ops or output checks
name it, as code or as a "module.attr" target string. The names below
stay although only tests call them, each for the reason given.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = sorted((ROOT / "src" / "shufflestats").glob("*.py"))
BENCHMARK_CALLERS = [ROOT / "perfbench" / "ops.py", ROOT / "perfbench" / "checks.py"]

TEST_ONLY_ALLOWED = {
    "estimate0_deviation": "the only statement of the paper's estimate-zero deviation bound",
    "bernoulli_closed_forms": "the only statement of the paper's Bernoulli closed forms",
    "bernoulli_tail_bound": "the only statement of the |B_t|/t! <= 4 (2 pi)^-t tail majorant",
    "bernoulli_tail_exact": "the exact reference the tail-bound test compares against",
    "newton_check": "backs acceptance check c08 (the Newton inequalities on Eulerian rows)",
    "central_eulerian_ratio": "backs acceptance check c09 (the central Eulerian mass)",
}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _public_definitions():
    """(module, name) of each module-level public function and class."""
    out = []
    for path in SOURCE:
        for node in _tree(path).body:
            defines = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if isinstance(node, defines) and not node.name.startswith("_"):
                out.append((path.stem, node.name))
    return out


def _named(paths):
    """Identifiers used as names, attributes or dotted parts of string constants."""
    names = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    names.update(parts)
    return names


def test_every_public_name_has_a_caller_outside_tests():
    callers = _named(SOURCE + BENCHMARK_CALLERS)
    test_only = [
        f"{module}.{name}"
        for module, name in _public_definitions()
        if name not in callers and name not in TEST_ONLY_ALLOWED
    ]
    assert test_only == [], f"public names with no caller outside tests: {test_only}"


def test_allowed_names_are_still_defined_and_still_test_only():
    defined = {name for _, name in _public_definitions()}
    callers = _named(SOURCE + BENCHMARK_CALLERS)
    assert set(TEST_ONLY_ALLOWED) <= defined
    assert not set(TEST_ONLY_ALLOWED) & callers
