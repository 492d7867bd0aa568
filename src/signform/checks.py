"""The type rule of the settings dataclasses: each field's value must have
the type that its annotation, read as text, declares. JSON true and false
load as bools, which are ints to isinstance, so a bool is never a number.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

_NONE = type(None)
# Annotation -> (accepted types, what the value must be). float | None says
# "a real number" alone, as its message always has.
_TYPES = {
    "int": (int, "an integer"),
    "float": (numbers.Real, "a real number"),
    "float | None": ((numbers.Real, _NONE), "a real number"),
    "str": (str, "a string"),
    "str | None": ((str, _NONE), "a string or null"),
    "bool": (bool, "true or false"),
    "dict": (dict, "an object"),
    "dict | None": ((dict, _NONE), "an object or null"),
    "tuple": ((list, tuple), "a list"),
    "tuple[int, ...]": ((list, tuple), "a list"),
}
ANNOTATIONS = frozenset(_TYPES)


def _check(name: str, annotation: str, value) -> None:
    types, what = _TYPES[annotation]
    if not isinstance(value, types) or (isinstance(value, bool)
                                        and annotation != "bool"):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    # A comparison, not math.isfinite, so a huge int cannot overflow.
    if (annotation.startswith("float") and value is not None
            and not -math.inf < value < math.inf):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if annotation == "tuple[int, ...]":
        for i, item in enumerate(value):
            _check(f"{name}[{i}]", "int", item)


def check_fields(settings) -> None:
    """Raise ValueError, naming the field, for the first field of settings,
    in declaration order, whose value its annotation refuses; a list given
    for a tuple field is stored as a tuple."""
    for f in dataclasses.fields(settings):
        value = getattr(settings, f.name)
        _check(f.name, f.type, value)
        if isinstance(value, list):
            object.__setattr__(settings, f.name, tuple(value))
