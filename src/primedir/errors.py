"""Exception types shared across the package, and the one strict reader of
its exact-JSON files.

Direction sets and overlap reports share one syntax: a schema-tagged JSON
object in which a big integer is a decimal string, a rational is "n" or
"n/d", and every other field has one JSON type.  The reader has four parts,
and each refuses a malformed input with a ParseError that names what it read:

* ``json_object``: the top level is a JSON object with the expected schema;
* ``read_fields``: named fields, each present and read by its reader:
  ``typed`` makes one that tests a field's JSON type, ``one_of`` one that
  tests its value, ``items`` one that reads a list entry by entry,
  ``record`` one that reads an object field by field, and ``nullable`` one
  that also takes null;
* ``integer``: a canonical decimal-integer string, ASCII digits after an
  optional minus sign;
* ``rational``: such an integer, or two of them joined by "/" with no sign
  on the denominator.  No other form that ``int`` would take (" 7", "+5",
  "1_000", other scripts' digits) is read, and no decimal or exponent form
  ("1e5000000") is expanded.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction


class ResourceLimitError(RuntimeError):
    """An enumeration or scan would exceed a configured size cap."""


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


def read_fields(obj: dict, readers, at: str = "") -> list:
    """read(obj[key], at + key) for each (key, read) of readers: the fields
    read, each named at + key in the ParseError when missing or malformed."""
    for key, _ in readers:
        if key not in obj:
            raise ParseError(f"missing field {at + key!r}")
    return [read(obj[key], at + key) for key, read in readers]


def _refused(name: str, expected: str, value) -> ParseError:
    return ParseError(f"field {name!r} must be {expected}, got {value!r}")


def typed(kinds: tuple, expected: str):
    """A reader of a value whose type is one of kinds, exactly: json.loads
    gives exact int, float, str, list, dict and NoneType, and a bool is not
    an int."""
    def read(value, name: str):
        if type(value) in kinds:
            return value
        raise _refused(name, expected, value)
    return read


def one_of(*values):
    """A reader of one of the values; they are a tuple, so a list or a dict
    fails the test rather than raising."""
    expected = "one of " + ", ".join(map(json.dumps, values))

    def read(value, name: str):
        if value in values:
            return value
        raise _refused(name, expected, value)
    return read


json_int = typed((int,), "an integer")


def nullable(read):
    """``read``, or None for null."""
    return lambda value, name: None if value is None else read(value, name)


def items(read, n: int | None = None):
    """A reader of a list of n entries (any number when n is None), each
    read by ``read`` and named by its index."""
    expected = "a list" if n is None else f"a list of {n} entries"

    def read_list(value, name: str) -> tuple:
        if type(value) is not list or n not in (None, len(value)):
            raise _refused(name, expected, value)
        return tuple([read(x, f"{name}[{i}]") for i, x in enumerate(value)])
    return read_list


def record(readers, build):
    """A reader of an object with no fields but those of readers: build(*values)
    of the fields read, each named by a dot after the object's name."""
    keys = {key for key, _ in readers}
    expected = "an object of the fields " + ", ".join(sorted(keys))

    def read(value, name: str):
        if type(value) is not dict or not value.keys() <= keys:
            raise _refused(name, expected, value)
        return build(*read_fields(value, readers, name + "."))
    return read


_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def integer(text, name: str) -> int:
    """A big integer, written as a decimal string."""
    if isinstance(text, str) and _INTEGER.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # over Python's integer-string digit limit
            pass
    raise ParseError(f"bad integer {text!r} at {name}")


def rational(text, name: str) -> Fraction:
    """An exact rational, written "n" or "n/d"."""
    if isinstance(text, str) and _RATIONAL.fullmatch(text):
        try:
            return Fraction(*map(int, text.split("/")))
        except (ValueError, ZeroDivisionError):  # the digit limit, or d = 0
            pass
    raise ParseError(f"bad rational {text!r} at {name}")
