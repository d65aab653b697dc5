import ast
import re
from pathlib import Path

TESTS = Path(__file__).parent
ROADMAP = TESTS.parent / "ROADMAP.md"


def _roadmap_items():
    """Numbers of the ROADMAP's items: the lines that open ``N. **...``."""
    return {int(n) for n in re.findall(r"^(\d+)\. \*\*", ROADMAP.read_text(encoding="utf-8"), re.M)}


def _is_xfail(node):
    """Whether ``node`` is ``pytest.mark.xfail``."""
    return (isinstance(node, ast.Attribute) and node.attr == "xfail"
            and isinstance(node.value, ast.Attribute) and node.value.attr == "mark")


def _bad_xfails(source, items):
    """(line, problem) for each xfail marker that is not strict or names no ROADMAP item."""
    tree = ast.parse(source)
    calls = {id(node.func) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _is_xfail(node.func)}
    for node in ast.walk(tree):
        if _is_xfail(node) and id(node) not in calls:
            yield node.lineno, "marker without arguments"
        if not (isinstance(node, ast.Call) and _is_xfail(node.func)):
            continue
        kw = {k.arg: k.value for k in node.keywords}
        strict = kw.get("strict")
        if not (isinstance(strict, ast.Constant) and strict.value is True):
            yield node.lineno, "not strict=True"
        reason = kw.get("reason")
        text = reason.value if isinstance(reason, ast.Constant) else ""
        named = {int(n) for n in re.findall(r"ROADMAP item (\d+)", str(text))}
        if not named or not named <= items:
            yield node.lineno, "reason names no ROADMAP item"


def test_checker_flags_each_kind_of_bad_marker():
    items = {1, 6}
    good = '@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: why")\ndef test_a(): pass\n'
    assert list(_bad_xfails(good, items)) == []
    bad = {
        "@pytest.mark.xfail\ndef test_a(): pass\n": "marker without arguments",
        '@pytest.mark.xfail(reason="ROADMAP item 6")\ndef test_a(): pass\n': "not strict=True",
        '@pytest.mark.xfail(strict=False, reason="ROADMAP item 6")\ndef test_a(): pass\n':
            "not strict=True",
        '@pytest.mark.xfail(strict=True, reason="flaky")\ndef test_a(): pass\n':
            "reason names no ROADMAP item",
        '@pytest.mark.xfail(strict=True, reason="ROADMAP item 9")\ndef test_a(): pass\n':
            "reason names no ROADMAP item",
        'P = pytest.param(1, marks=pytest.mark.xfail(strict=True))\n':
            "reason names no ROADMAP item",
    }
    for source, problem in bad.items():
        assert [p for _, p in _bad_xfails(source, items)] == [problem], source


def test_every_xfail_is_strict_and_names_a_roadmap_item():
    items = _roadmap_items()
    assert items >= {1, 2, 3}
    found = [(path.name, line, problem) for path in sorted(TESTS.rglob("*.py"))
             for line, problem in _bad_xfails(path.read_text(encoding="utf-8"), items)]
    assert found == []
