"""Every public name, method and parameter default of the package serves a caller outside tests.

A module-level public name, or a public method or property of a class,
counts as called when the package itself names it (beyond its
definition) or when the benchmark's ops, output checks or tracer name
it, as code or as a "module.attr" target string. The names below stay
although only tests call them, each for the reason given.

A parameter with a default is a setting, so some call outside tests
must pass it, by keyword or by position, and some call outside tests
must rely on the default. A literal argument equal to the literal
default relies on the default. Calls are matched by the name of the
function they call, so a name shared by two functions can hide an
unused or an always-overridden default but never flag a used or a
relied-on one; hence no function with a default may share its called
name.

Every field of a result record (a subclass of errors._Record) is read
as an attribute outside tests, matched by name; the fields allowed below
are read only otherwise, as when cli renders a record whole through
tuple() or _asdict().
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = sorted((ROOT / "src" / "shufflestats").glob("*.py"))
BENCHMARK_CALLERS = [ROOT / "perfbench" / name for name in ("ops.py", "checks.py", "tracer.py")]
CALLERS = SOURCE + BENCHMARK_CALLERS

TEST_ONLY_ALLOWED = {
    "estimate0_deviation": "the only statement of the paper's estimate-zero deviation bound",
    "bernoulli_closed_forms": "the only statement of the paper's Bernoulli closed forms",
    "newton_check": "backs acceptance check c08 (the Newton inequalities on Eulerian rows)",
}

UNPASSED_DEFAULT_ALLOWED = {
    "main.argv": "the console script calls main() and the benchmark calls main(argv) "
    "through a resolved name, which no call site shows",
}

UNREAD_FIELD_ALLOWED = {
    "TvReport.slack": "cli renders every TvReport field through tuple(report)",
    "NewtonRecord.cases": "a result of the allowed newton_check",
    "NewtonRecord.equality_points": "a result of the allowed newton_check",
}

RECORDS = {
    "StatisticLaw", "MomentReport", "PairLaw", "NewtonRecord", "NogoodRow",
    "SamplerConfig", "SampleSummary", "SteinSolution", "TvReport", "SuiteResult",
}

# The argument count of a call with *args or **kwargs, which may pass
# anything. A keyword-only parameter sits at position _ALL - 1, which
# only such a call reaches by count.
_ALL = 1 << 30


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


def _class_of(tree):
    """Function node -> name of the class whose body defines it."""
    return {
        node: cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    }


def _functions():
    """(qualified name, called name, implicit arguments, node) of every function.

    A method gets one implicit argument, self or cls, unless it is a
    staticmethod; __init__ is called by its class's name.
    """
    out = []
    for path in SOURCE:
        tree = _tree(path)
        class_of = _class_of(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            cls = class_of.get(node)
            if cls is None:
                out.append((node.name, node.name, 0, node))
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            called = cls if node.name == "__init__" else node.name
            out.append((f"{cls}.{node.name}", called, 0 if static else 1, node))
    return out


def _call_sites(paths):
    """Called name -> [(positional count, {position or keyword: argument})] over every call in paths.

    A call with *args or **kwargs passes every argument. An
    Op(label, "module.attr", args) entry of the benchmark is a positional
    call of attr with len(args) arguments.
    """
    sites = {}
    for path in paths:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            passed = {kw.arg: kw.value for kw in node.keywords}
            spread = None in passed or any(isinstance(a, ast.Starred) for a in node.args)
            if not spread:
                passed.update(enumerate(node.args))
            sites.setdefault(name, []).append((_ALL if spread else len(node.args), passed))
            target = node.args[1] if name == "Op" and len(node.args) > 1 else None
            if isinstance(target, ast.Constant) and isinstance(target.value, str):
                op_args = [kw.value for kw in node.keywords if kw.arg == "args"] + node.args[2:3]
                count, passed = 0, {}
                if op_args and isinstance(op_args[0], ast.Tuple):
                    count, passed = len(op_args[0].elts), dict(enumerate(op_args[0].elts))
                elif op_args:
                    count = _ALL
                sites.setdefault(target.value.split(".")[-1], []).append((count, passed))
    return sites


def _is_literal(arg, default):
    """Whether arg and default are one literal: same type, equal value."""
    return (
        isinstance(arg, ast.Constant)
        and isinstance(default, ast.Constant)
        and type(arg.value) is type(default.value)
        and arg.value == default.value
    )


def _defaulted_calls():
    """(function.parameter, [(may pass, surely passes)] per call outside tests) of each default.

    A call with *args or **kwargs may pass the parameter but does not
    surely pass it. A call that passes the default's own literal passes
    nothing.
    """
    sites = _call_sites(CALLERS)
    out = []
    for qualname, called, implicit, node in _functions():
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        defaulted = [
            (i - implicit, arg.arg, args.defaults[i - first])
            for i, arg in enumerate(positional)
            if i >= first
        ]
        defaulted += [
            (_ALL - 1, a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d
        ]
        for index, param, default in defaulted:
            calls = []
            for count, passed in sites.get(called, []):
                if _is_literal(passed.get(param, passed.get(index)), default):
                    calls.append((False, False))
                    continue
                keyword = param in passed
                calls.append((keyword or count > index, keyword or _ALL > count > index))
            out.append((f"{qualname}.{param}", calls))
    return out


def _unpassed_defaults():
    """function.parameter of each default that no call outside tests passes."""
    return [name for name, calls in _defaulted_calls() if not any(may for may, _ in calls)]


def _always_passed_defaults():
    """function.parameter of each default that every call outside tests passes."""
    return [name for name, calls in _defaulted_calls() if calls and all(sure for _, sure in calls)]


def test_every_public_name_has_a_caller_outside_tests():
    callers = _named(CALLERS)
    test_only = [
        f"{module}.{name}"
        for module, name in _public_definitions()
        if name not in callers and name not in TEST_ONLY_ALLOWED
    ]
    assert test_only == [], f"public names with no caller outside tests: {test_only}"


def test_allowed_names_are_still_defined_and_still_test_only():
    defined = {name for _, name in _public_definitions()}
    callers = _named(CALLERS)
    assert set(TEST_ONLY_ALLOWED) <= defined
    assert not set(TEST_ONLY_ALLOWED) & callers


def test_every_parameter_default_is_passed_outside_tests():
    unpassed = _unpassed_defaults()
    knobs = [name for name in unpassed if name not in UNPASSED_DEFAULT_ALLOWED]
    assert knobs == [], f"defaults no call outside tests passes: {knobs}"
    assert set(UNPASSED_DEFAULT_ALLOWED) <= set(unpassed)


def test_every_parameter_default_is_relied_on_outside_tests():
    # A default that every call outside tests overrides serves only tests,
    # and any copy of it elsewhere (a CLI flag's default) can drift apart.
    served = _always_passed_defaults()
    assert served == [], f"defaults that only tests rely on: {served}"


def test_no_defaulted_function_shares_its_called_name():
    # The two default checks above match calls by the called name, so a
    # default of a function whose name another package function also
    # bears could hide behind that function's calls. __init__ is called
    # by its class's name and is left out.
    functions = _functions()
    counts = Counter(called for _, called, _, _ in functions)
    shared = [
        qualname
        for qualname, called, _, node in functions
        if node.name != "__init__"
        and (node.args.defaults or any(node.args.kw_defaults))
        and counts[called] > 1
    ]
    assert shared == [], f"defaulted functions whose called name is not unique: {shared}"


def test_every_public_method_and_property_is_named_outside_tests():
    callers = _named(CALLERS)
    test_only = [
        f"{cls}.{node.name}"
        for path in SOURCE
        for node, cls in _class_of(_tree(path)).items()
        if not node.name.startswith("_") and node.name not in callers
    ]
    assert test_only == [], f"public members with no caller outside tests: {test_only}"


def _record_fields():
    """Class.field of each annotated field of a record (a _Record subclass) in the package."""
    out = []
    for path in SOURCE:
        for cls in ast.walk(_tree(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            if not any(getattr(base, "id", None) == "_Record" for base in cls.bases):
                continue
            out += [
                f"{cls.name}.{node.target.id}"
                for node in cls.body
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            ]
    return out


def _unread_fields():
    """Class.field of each record field no attribute read outside tests names."""
    read = {
        node.attr
        for path in CALLERS
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [field for field in _record_fields() if field.split(".")[1] not in read]


def test_every_record_field_is_read_outside_tests():
    assert {field.split(".")[0] for field in _record_fields()} == RECORDS
    unread = _unread_fields()
    extra = [field for field in unread if field not in UNREAD_FIELD_ALLOWED]
    assert extra == [], f"record fields no code outside tests reads: {extra}"
    assert set(UNREAD_FIELD_ALLOWED) <= set(unread)
