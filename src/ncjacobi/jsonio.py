"""File-level JSON reading and writing; no other module calls json.

``dump`` writes every file and listing as ``json.dumps`` text, a few thousand encoder
chunks at a time: shortest round-trip float reprs reload bit-identically, and a NaN or
an infinity raises ValueError and leaves no file.  An input that is not JSON, or that
the ``from_json_obj`` of its class refuses (each class checks its own keys, shapes and
types), raises SchemaError naming the file.  Writes use a temporary file and a rename.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from typing import IO, Any, Callable

from .functional import MomentFunctional
from .jacobi import AdmissibleFamily


class SchemaError(ValueError):
    """Input file is not valid JSON or does not match the expected schema."""


def dump(obj: Any, fh: IO[str]) -> None:
    """``json.dumps(obj, indent=1, allow_nan=False)`` and a newline, written to ``fh``."""
    chunks = json.JSONEncoder(indent=1, allow_nan=False).iterencode(obj)
    while text := "".join(itertools.islice(chunks, 4096)):
        fh.write(text)
    fh.write("\n")


def write_json(path: str, obj: Any) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(prefix=".ncjacobi-", suffix=".json", dir=directory)
    except OSError as exc:  # name the target, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from exc
    umask = os.umask(0)
    os.umask(umask)
    try:
        # mkstemp creates the file 0600; give it the mode open() would have
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            dump(obj, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path: str) -> Any:
    """Parse a JSON file; the non-standard tokens NaN and (-)Infinity raise SchemaError."""

    def reject(token: str):
        raise SchemaError(f"{path}: non-finite number {token} is not allowed")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _load(path: str, parse: Callable[[Any], Any]) -> Any:
    """``parse`` applied to the JSON in ``path``; whatever it refuses raises
    SchemaError naming the file."""
    obj = read_json(path)
    try:
        return parse(obj)
    except (ValueError, TypeError, OverflowError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def load_moments(path: str) -> MomentFunctional:
    return _load(path, MomentFunctional.from_json_obj)


def save_moments(path: str, phi: MomentFunctional) -> None:
    write_json(path, phi.to_json_obj())


def load_family(path: str) -> AdmissibleFamily:
    return _load(path, AdmissibleFamily.from_json_obj)


def save_family(path: str, family: AdmissibleFamily) -> None:
    write_json(path, family.to_json_obj())
