"""File-level JSON reading and writing with schema checks.

Numbers are emitted with Python's shortest round-trip float repr, so every
written file reloads to bit-identical values.  Writes go through a temporary
file in the target directory followed by an atomic rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Mapping

from .functional import MomentFunctional
from .jacobi import AdmissibleFamily


class SchemaError(ValueError):
    """Input file parsed as JSON but does not match the expected schema."""


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
            json.dump(obj, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path: str) -> Any:
    """Parse a JSON file; the non-standard tokens NaN and (-)Infinity raise SchemaError."""

    def reject(token: str):
        raise SchemaError(f"{path}: non-finite number {token} is not allowed")

    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def _require(obj: Mapping, keys: tuple[str, ...], what: str, path: str) -> None:
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{path}: expected a JSON object for {what}")
    for key in keys:
        if key not in obj:
            raise SchemaError(f"{path}: {what} is missing required key {key!r}")


def load_moments(path: str) -> MomentFunctional:
    obj = read_json(path)
    _require(obj, ("N", "max_degree", "moments"), "moment table", path)
    if not isinstance(obj["moments"], list):
        raise SchemaError(f"{path}: 'moments' must be a list of word/value entries")
    for entry in obj["moments"]:
        _require(entry, ("word", "value"), "moment entry", path)
    try:
        return MomentFunctional.from_json_obj(obj)
    except (ValueError, TypeError, OverflowError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def save_moments(path: str, phi: MomentFunctional) -> None:
    write_json(path, phi.to_json_obj())


def load_family(path: str) -> AdmissibleFamily:
    obj = read_json(path)
    _require(obj, ("N", "depth", "A", "B"), "coefficient family", path)
    for side in ("A", "B"):
        if not isinstance(obj[side], list):
            raise SchemaError(f"{path}: {side!r} must be a list of block entries")
        for entry in obj[side]:
            _require(entry, ("n", "k", "rows"), f"{side} block", path)
    try:
        return AdmissibleFamily.from_json_obj(obj)
    except (ValueError, TypeError, OverflowError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def save_family(path: str, family: AdmissibleFamily) -> None:
    write_json(path, family.to_json_obj())
