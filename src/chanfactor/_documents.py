"""The rules every input document shares. ``read_json`` alone raises
``ParseError``, for bytes that cannot be read or decoded as JSON; the reader
of each document kind (``Channel.from_json``, ``InputDistribution.from_json``,
``PhasedQubitEnsemble.from_json``, ``qfactorization_from_json``) applies the
rest and raises ``ValueError`` on any schema violation."""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

__all__ = ["ParseError", "is_label_array", "json_array", "number_array", "read_json", "required"]


class ParseError(ValueError):
    """Input file could not be read or decoded as JSON."""


def read_json(path: str):
    """The JSON value held by the file at ``path``; ParseError unless it can be read and decoded."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from err
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
        raise ParseError(f"{path} is not valid JSON: {err}") from err


def required(data, key: str):
    """``data[key]``; ValueError naming ``key`` unless ``data`` is a JSON object that holds it."""
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"expected a JSON object with key {key!r}")
    return data[key]


def json_array(data, key: str) -> list:
    """``required(data, key)``; ValueError naming ``key`` unless it is a JSON array."""
    value = required(data, key)
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a JSON array")
    return value


def number_array(data, what: str) -> np.ndarray:
    """Float array of JSON ``data``; ValueError unless a rectangular array of numbers."""
    try:
        a = np.asarray(data)
    except ValueError:
        raise ValueError(f"{what} must form a rectangular array") from None
    flat = data
    for _ in range(a.ndim - 1):
        flat = itertools.chain.from_iterable(flat)
    # numpy casts a JSON true/false mixed with numbers to 1/0, so look at the entries.
    if a.dtype.kind not in "iuf" or (a.ndim and bool in map(type, flat)):
        raise ValueError(f"{what} must hold only numbers")
    return a.astype(float, copy=False)


def is_label_array(value) -> bool:
    """True if ``value`` is a JSON array of strings, finite numbers, booleans or
    nulls: every label's rule. ``json`` decodes ``NaN``, ``Infinity`` and ``1e400``
    to floats that no report can write back."""
    return isinstance(value, list) and all(
        x is None or isinstance(x, (str, int)) or (isinstance(x, float) and math.isfinite(x)) for x in value
    )
