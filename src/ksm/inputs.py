"""Reading inputs: `InputError`, the one error every input defect raises,
and the steps the readers share (text lines, line records, JSON, the
settings' type rule)."""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable, Iterator


class InputError(ValueError):
    """A defect of an input: `message`, at `path` and `line` where known
    (else None); printed as ``path:line: message``."""

    def __init__(self, message: str, path=None, line: int | None = None):
        super().__init__(message)
        self.message, self.path, self.line = message, path, line

    def __str__(self) -> str:
        where = ":".join(str(p) for p in (self.path, self.line)
                         if p is not None)
        return f"{where}: {self.message}" if where else self.message


def text_lines(path) -> Iterator[tuple[int, str]]:
    """(line number from 1, line) for each line of a UTF-8 text file, read
    lazily; InputError at the line for one holding a byte that is not
    UTF-8 (a strict read would raise UnicodeDecodeError, naming neither)."""
    # undecodable bytes become lone surrogates, which do not encode back
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise InputError("not UTF-8 text", path, lineno) from None
            yield lineno, line


def records(path, parse: Callable[[str], object]) -> list:
    """`parse` of each nonblank line of a text file, without its line end;
    an InputError from `parse` gets the file and line."""
    out = []
    for lineno, line in text_lines(path):
        if not line.isspace():
            try:
                out.append(parse(line.rstrip("\n")))
            except InputError as e:
                e.path, e.line = path, lineno
                raise
    return out


def loads(text: str, path=None, what: str = "", **kw):
    """The JSON value of `text` (`kw` go to `json.loads`); InputError at
    `path`, naming `what`, for text that is not JSON or nests too deeply."""
    where = f" in {what}" if what else ""
    try:
        return json.loads(text, **kw)
    except InputError:  # raised by a hook in `kw`
        raise
    except RecursionError as e:
        raise InputError(f"JSON nested too deeply{where}", path) from e
    except ValueError as e:  # a JSONDecodeError, or an int of too many digits
        raise InputError(f"invalid JSON{where} ({getattr(e, 'msg', e)})",
                         path, getattr(e, "lineno", None)) from e


def check_types(settings, defaults: dict | None = None, path=None) -> None:
    """InputError for the first value not of its default's type (an int
    also fits a float, a bool only a bool): a dataclass's fields, or a
    mapping's values against `defaults`, shown as JSON if read from `path`."""
    if defaults is None:
        defaults = {f.name: f.default for f in dataclasses.fields(settings)}
        settings = vars(settings)
    for key, value in settings.items():
        kind = type(defaults[key])
        if type(value) is not kind and (kind, type(value)) != (float, int):
            shown = json.dumps(value) if path else repr(value)
            raise InputError(f"{key} must be of type {kind.__name__}, got "
                             f"{shown}", path)
