"""Correctness oracle: a type-tagged JSON form of results, and its comparison.

Experiment results are nested dataclasses, dicts keyed by enums or
tuples, lists, tuples and floats.  :func:`encode` turns any of them into
plain JSON that keeps every type distinction (a tuple never compares
equal to a list, an enum key never equal to its string value), and
:func:`first_difference` walks two encodings in step and names the first
field that differs, comparing floats at a relative tolerance.  A change
that only speeds the simulator up must leave every simulated statistic
identical, so the tolerance only absorbs summation-order noise.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from pathlib import Path
from typing import Any, Optional

#: Relative tolerance for floats (plus a tiny absolute floor for zeros).
REL_TOL = 1e-9
ABS_TOL = 1e-12


def encode(value: Any) -> Any:
    """A JSON-serialisable, type-tagged form of ``value``."""
    if isinstance(value, enum.Enum):  # before str: some enums subclass it
        return {"enum": f"{type(value).__name__}.{value.name}"}
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else {"float": repr(value)}
    if hasattr(value, "dtype") and hasattr(value, "tolist"):  # numpy scalar/array
        return {"ndarray": str(value.dtype), "data": encode(value.tolist())}
    if isinstance(value, tuple):
        return {"tuple": [encode(item) for item in value]}
    if isinstance(value, list):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        return {"dict": [[encode(k), encode(v)] for k, v in value.items()]}
    if dataclasses.is_dataclass(value):
        return {
            "type": type(value).__name__,
            "fields": {
                f.name: encode(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if hasattr(value, "__dict__"):
        return {"type": type(value).__name__, "fields": encode(dict(vars(value)))}
    raise TypeError(f"cannot encode {type(value).__name__} for the oracle")


def first_difference(expected: Any, actual: Any, path: str = "$") -> Optional[str]:
    """The first differing field as ``path: expected != actual``, or None."""
    if isinstance(expected, float) or isinstance(actual, float):
        if (
            isinstance(expected, (int, float))
            and isinstance(actual, (int, float))
            and not isinstance(expected, bool)
            and not isinstance(actual, bool)
            and type(expected) is type(actual)
            and math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        ):
            return None
        return f"{path}: expected {expected!r}, got {actual!r}"
    if type(expected) is not type(actual):
        return f"{path}: expected {_brief(expected)}, got {_brief(actual)}"
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return f"{path}: expected {len(expected)} items, got {len(actual)}"
        for index, (e, a) in enumerate(zip(expected, actual)):
            found = first_difference(e, a, f"{path}[{index}]")
            if found is not None:
                return found
        return None
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            missing = sorted(set(expected) - set(actual))
            extra = sorted(set(actual) - set(expected))
            return f"{path}: missing keys {missing}, unexpected keys {extra}"
        for key in expected:
            found = first_difference(expected[key], actual[key], f"{path}.{key}")
            if found is not None:
                return found
        return None
    if expected != actual:
        return f"{path}: expected {expected!r}, got {actual!r}"
    return None


def _brief(value: Any) -> str:
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= 80 else text[:77] + "..."


def load(path: Path) -> dict:
    """An expected-results file, or an empty mapping when it is absent."""
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def merge_into(path: Path, entries: dict) -> None:
    """Add or replace ``entries`` in an expected-results file."""
    merged = load(path)
    merged.update(entries)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(merged, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
