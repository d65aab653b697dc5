import ast
import contextlib
import io
import json
import re
import tokenize
from pathlib import Path

from robust_recourse.experiments import ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def _comments(source):
    """Each line's trailing comment text, by line number."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {t.start[0]: t.string[1:].strip() for t in tokens if t.type == tokenize.COMMENT}


def test_readme_python_runs_and_prints_what_its_comments_say():
    # The blocks run in order in one namespace, as a reader pastes them. A
    # print whose comment is a Python literal must print exactly that text.
    namespace, checked = {}, []
    for block in _blocks("python"):
        comments = _comments(block)
        for stmt in ast.parse(block).body:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
            expected = comments.get(stmt.end_lineno)
            is_print = (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
                        and getattr(stmt.value.func, "id", None) == "print")
            if is_print and expected is not None:
                try:
                    ast.literal_eval(expected)
                except (ValueError, SyntaxError):
                    continue  # a description, not a value
                assert out.getvalue().strip() == expected
                checked.append(expected)
    assert checked == ["[2.77258872]", "0.5004024235381879"]


def test_readme_json_configs_load():
    # every config README shows is one the harness accepts
    configs = [json.loads(block) for block in _blocks("json")]
    assert configs
    for raw in configs:
        ExperimentConfig.from_dict(raw)
