"""Exception types shared across the package, and the one strict reader and
writer of its exact-JSON files.

Direction sets and overlap reports share one syntax: a schema-tagged JSON
object in which a big integer is a decimal string, a rational is written
"n/d" and read from "n" or "n/d", and every other field has one JSON type.
A file is one table of (key, ``Field``) pairs, each a reader and its
writer: ``read_fields`` reads the table and ``write_fields`` writes it.
Each reader refuses a malformed value with a ParseError that names it:

* ``json_object``: the top level is a JSON object with the expected schema;
* ``typed`` tests a field's JSON type, ``one_of`` its value, ``items``
  reads a list entry by entry, ``record`` an object field by field, and
  ``nullable`` also takes null;
* ``integer``: ASCII digits after an optional minus sign;
* ``rational``: such an integer, or two joined by "/" with no sign on the
  denominator.  No other form that ``int`` takes (" 7", "+5", "1_000",
  other scripts' digits) is read, and no decimal or exponent form
  ("1e5000000") is expanded.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from fractions import Fraction
from operator import attrgetter


class PrecisionError(RuntimeError):
    """A quadrature could not certify the requested accuracy within budget."""


class ConstructionError(ValueError):
    """A direction-family construction constraint cannot be met.

    The message names the violated constraint so callers (and the CLI,
    which maps this to exit code 2) can report it verbatim.
    """


class ParseError(ValueError):
    """A serialized artifact is malformed; message carries a location."""


def json_object(data: bytes, schema: str, what: str) -> dict:
    """The top-level object of UTF-8 JSON data tagged with ``schema``;
    ``what`` names the file kind in the ParseError otherwise."""
    try:
        doc = json.loads(data.decode())
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not UTF-8: {exc}") from exc
    except ValueError as exc:  # bad JSON, or an integer literal over Python's digit limit
        raise ParseError(f"malformed {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{what} holds a JSON {type(doc).__name__} at top level, not an object")
    if doc.get("schema") != schema:
        raise ParseError(f"not a {schema} {what}: schema {doc.get('schema')!r}")
    return doc


# read(value, name) is what a JSON value holds, else a ParseError naming
# name; write(x) is the JSON value that read takes back to x
Field = namedtuple("Field", "read write")


def read_fields(obj: dict, fields, at: str = "") -> list:
    """read(obj[key], at + key) for each (key, field) of fields: the values
    read, each named at + key in the ParseError when missing or malformed."""
    for key, _ in fields:
        if key not in obj:
            raise ParseError(f"missing field {at + key!r}")
    return [field.read(obj[key], at + key) for key, field in fields]


def write_fields(values, fields) -> dict:
    """The object that read_fields reads as values: {key: write(value)}."""
    return {key: field.write(value) for (key, field), value in zip(fields, values)}


def _refused(name: str, expected: str, value) -> ParseError:
    return ParseError(f"field {name!r} must be {expected}, got {value!r}")


def _as_is(value):
    return value


def _tested(allowed: tuple, key, expected: str) -> Field:
    """A value read when key(value) is one of allowed, and written as it is."""
    def read(value, name: str):
        if key(value) in allowed:
            return value
        raise _refused(name, expected, value)
    return Field(read, _as_is)


def typed(kinds: tuple, expected: str) -> Field:
    """A value whose type is one of kinds, exactly: json.loads gives exact
    int, float, str, list, dict and NoneType, and a bool is not an int."""
    return _tested(kinds, type, expected)


def one_of(*values) -> Field:
    """One of the values; they are a tuple, so a list or a dict fails the
    test rather than raising."""
    return _tested(values, _as_is, "one of " + ", ".join(map(json.dumps, values)))


json_int = typed((int,), "an integer")


def nullable(field: Field) -> Field:
    """``field``, or None for null."""
    read, write = field
    return Field(lambda value, name: None if value is None else read(value, name),
                 lambda x: None if x is None else write(x))


def items(field: Field, n: int | None = None) -> Field:
    """A list of n entries (any number when n is None), each read by
    ``field`` and named by its index; another length is refused when
    written too."""
    (read, write), expected = field, "a list" if n is None else f"a list of {n} entries"

    def read_list(value, name: str) -> tuple:
        if type(value) is not list or n not in (None, len(value)):
            raise _refused(name, expected, value)
        return tuple([read(x, f"{name}[{i}]") for i, x in enumerate(value)])

    def write_list(xs) -> list:
        if xs is None or n not in (None, len(xs)):
            raise ValueError(f"cannot write {xs!r} as {expected}")
        return [write(x) for x in xs]
    return Field(read_list, write_list)


def record(fields, build, parts=None) -> Field:
    """An object with no fields but those of fields: build(*values) of the
    values read, each named by a dot after the object's name, written from
    parts(x) (by default the attributes that the keys name)."""
    keys = {key for key, _ in fields}
    expected = "an object of the fields " + ", ".join(sorted(keys))
    parts = parts or attrgetter(*[key for key, _ in fields])

    def read(value, name: str):
        if type(value) is not dict or not value.keys() <= keys:
            raise _refused(name, expected, value)
        return build(*read_fields(value, fields, name + "."))
    return Field(read, lambda x: write_fields(parts(x), fields))


def _decimal(pattern: str, parse, what: str):
    """A reader of a string that fullmatches pattern, through parse."""
    fullmatch = re.compile(pattern).fullmatch

    def read(text, name: str):
        if isinstance(text, str) and fullmatch(text):
            try:
                return parse(text)
            except (ValueError, ZeroDivisionError):  # the digit limit, or d = 0
                pass
        raise ParseError(f"bad {what} {text!r} at {name}")
    return read


# a big integer, written as a decimal string
integer = Field(_decimal(r"-?[0-9]+", int, "integer"), str)
# an exact rational (an int or a Fraction), written "n/d" and read from "n" or "n/d"
rational = Field(_decimal(r"-?[0-9]+(/[0-9]+)?",
                          lambda text: Fraction(*map(int, text.split("/"))), "rational"),
                 lambda q: "%d/%d" % q.as_integer_ratio())
