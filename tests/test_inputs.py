"""The input-error contract: one error type, printed as path:line: message."""

import ast
import builtins
import re
from pathlib import Path

import pytest

from ksm.corpus import read_corpus
from ksm.inputs import InputError, loads

SRC = Path(__file__).parent.parent / "src" / "ksm"


@pytest.mark.parametrize("path, line, shown", [
    ("f.jsonl", 3, "f.jsonl:3: bad"), ("f.jsonl", None, "f.jsonl: bad"),
    (None, None, "bad")])
def test_an_input_error_prints_the_parts_it_knows(path, line, shown):
    e = InputError("bad", path, line)
    assert (str(e), e.message, e.path, e.line) == (shown, "bad", path, line)
    assert isinstance(e, ValueError)


def test_a_json_number_of_too_many_digits_is_an_input_error(tmp_path):
    # int() refuses it with a bare ValueError, not a JSONDecodeError
    with pytest.raises(InputError, match="^invalid JSON in x \\(Exceeds"):
        loads("1" * 5000, what="x")
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n" + "1" * 5000 + "\n")
    with pytest.raises(InputError,
                       match=f"^{re.escape(str(path))}:2: invalid JSON"):
        read_corpus(path)


def test_input_error_is_the_only_exception_class():
    # every input defect is an InputError: a per-module error class would
    # need its own handler in `cli.main` and its own path formatting
    errors = {name for name in dir(builtins)
              if isinstance(getattr(builtins, name), type)
              and issubclass(getattr(builtins, name), BaseException)}
    found, classes = set(), []
    for path in sorted(SRC.glob("*.py")):
        classes += [node for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.ClassDef)]
    while True:  # a class deriving from one found derives from Exception
        more = {c.name for c in classes if any(
            (name := ast.unparse(b).rsplit(".", 1)[-1]) in errors | found
            or name.endswith(("Error", "Exception")) for b in c.bases)}
        more -= found
        if not more:
            break
        found |= more
    assert found == {"InputError"}
