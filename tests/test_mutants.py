"""The mutation probe's generator: one token changed per mutant, nothing run."""

import ast
import importlib.util
import pathlib
import subprocess
import sys

PROBE = pathlib.Path(__file__).resolve().parent.parent / "tools" / "mutants.py"

SOURCE = '''\
def f(a, b, c=True):
    """Strings and bools stay: 3 < 4."""
    a += 1
    if a < b <= c and b in (a, 2):
        return a == b or c is None
    return a - b * c // 2 != 0
'''

# (line, change, changed line) for every mutant of SOURCE, in source order.
EXPECTED = [
    (3, "+ -> -", "a -= 1"),
    (3, "1 -> 2", "a += 2"),
    (4, "and -> or", "if a < b <= c or b in (a, 2):"),
    (4, "< -> <=", "if a <= b <= c and b in (a, 2):"),
    (4, "<= -> <", "if a < b < c and b in (a, 2):"),
    (4, "in -> not in", "if a < b <= c and b not in (a, 2):"),
    (4, "2 -> 3", "if a < b <= c and b in (a, 3):"),
    (5, "or -> and", "return a == b and c is None"),
    (5, "== -> !=", "return a != b or c is None"),
    (5, "is -> is not", "return a == b or c is not None"),
    (6, "!= -> ==", "return a - b * c // 2 == 0"),
    (6, "- -> +", "return a + b * c // 2 != 0"),
    (6, "// -> *", "return a - b * c * 2 != 0"),
    (6, "* -> //", "return a - b // c // 2 != 0"),
    (6, "2 -> 3", "return a - b * c // 3 != 0"),
    (6, "0 -> 1", "return a - b * c // 2 != 1"),
]


def load_probe(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the generator started a process")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    spec = importlib.util.spec_from_file_location("mutants", PROBE)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "mutants", module)
    spec.loader.exec_module(module)
    return module


def test_one_token_changes_per_mutant(monkeypatch):
    probe = load_probe(monkeypatch)
    found = probe.mutants(SOURCE)
    original = ast.unparse(ast.parse(SOURCE)).splitlines()
    assert [(m.lineno, m.mutation) for m in found] == [(line, change) for line, change, _ in EXPECTED]
    for m, (_, _, changed) in zip(found, EXPECTED):
        lines = m.source.splitlines()
        differ = [i for i, (old, new) in enumerate(zip(original, lines, strict=True)) if old != new]
        assert len(differ) == 1 and lines[differ[0]].strip() == changed, m
        assert m.key == f"{SOURCE.splitlines()[m.lineno - 1].strip()}: {m.mutation}"


def test_repeated_changes_on_one_line_get_distinct_keys(monkeypatch):
    probe = load_probe(monkeypatch)
    found = probe.mutants("x = 1 + 1\n")
    assert [(m.key, m.source.strip()) for m in found] == [
        ("x = 1 + 1: + -> -", "x = 1 - 1"),
        ("x = 1 + 1: 1 -> 2", "x = 2 + 1"),
        ("x = 1 + 1: 1 -> 2 #2", "x = 1 + 2"),
    ]


def test_every_module_has_a_test_map(monkeypatch):
    probe = load_probe(monkeypatch)
    modules = {path.name for path in (probe.ROOT / "src" / "qimatch").glob("*.py")}
    assert set(probe.TESTS) == modules
    assert all((probe.ROOT / test).is_file() for tests in probe.TESTS.values() for test in tests)
