"""Field checks shared by every reader of a JSON document.

Spec parsing, generator configs, schema documents and run manifests read
their fields through one `JsonChecks` each, so a string, a number or a list
of them means the same thing in every document. A reader binds the error
class it raises (`InvalidSpec`, `ConfigError`, `SchemaError`,
`ManifestInvalid`); each check takes the value and a label naming it in the
document, and returns the value in parsed form. `JsonChecks.build` reads a
JSON object into a dataclass, so the keys an object takes and their
defaults are the fields of its class.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, fields
from typing import Any, Callable, Collection, Mapping

from .errors import SdgError

Check = Callable[[Any, str], Any]  # (value, its label in the document) -> the value parsed


def loads(data: bytes | str, error: type[SdgError]) -> Any:
    """Parse JSON text whose numbers all fit a finite double: a canonical
    digest has no form for NaN or infinities, and a larger integer overflows
    a field read as a float. Bad UTF-8, a string or key holding a lone
    surrogate (an escape such as "\\udc80" that pairs with nothing, which no
    UTF-8 text holds), syntax, numbers or nesting deeper than the
    interpreter's recursion limit raise `error`."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise error(f"not UTF-8: {e}") from None

    def double(literal: str, convert=float):
        if abs(float(literal)) <= sys.float_info.max:  # false for NaN too
            return convert(literal)
        raise error(f"number {literal} is not a finite double")

    try:
        value = json.loads(
            data, parse_constant=double, parse_float=double, parse_int=lambda s: double(s, int)
        )
        json.dumps(value, ensure_ascii=False).encode("utf-8")  # fails on a lone surrogate
        return value
    except UnicodeEncodeError as e:
        raise error(f"lone surrogate {e.object[e.start:e.end]!r}: not UTF-8 text") from None
    except json.JSONDecodeError as e:
        raise error(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise error("nesting too deep") from None


class JsonChecks:
    """The checks, raising `error`; an unknown key raises `unknown`, which
    defaults to `error`."""

    def __init__(self, error: type[SdgError], unknown: type[SdgError] | None = None):
        self.error = error
        self.unknown = unknown or error

    def obj(
        self,
        value: Any,
        where: str,
        allowed: Collection[str] | None = None,
        required: Collection[str] = (),
    ) -> Mapping:
        """An object holding only `allowed` keys (any when None) and every
        `required` one."""
        if not isinstance(value, Mapping):
            raise self.error(f"{where} must be an object")
        extra = set(value) - set(value if allowed is None else allowed)
        if extra:
            raise self.unknown(f"{where}: unknown fields {sorted(extra, key=str)}")
        missing = set(required) - set(value)
        if missing:
            raise self.error(f"{where}: missing required fields {sorted(missing)}")
        return value

    def build(self, cls: type, checks: Mapping[str, Check | None], value: Any, where: str, **given) -> Any:
        """Build dataclass `cls` from the JSON object `value`.

        The keys of `checks` are the keys `value` may hold. Each fills the
        field of its name with what its check returns, and a check sees null
        like any other value, so only a `nullable` one lets it through. A key
        whose check is None is read by the caller, which passes the fields it
        builds from it as `given`. A field without a default is a required
        key unless it is given; an absent key takes its field's default.
        """
        required = {f.name for f in fields(cls) if f.default is f.default_factory is MISSING}
        self.obj(value, where, checks, required - given.keys())
        for key, v in value.items():
            if checks[key] is not None:
                given[key] = checks[key](v, f"{where}: {key}")
        return cls(**given)

    def tagged(self, classes: Mapping[str, tuple[type, Mapping]], key: str, value: Any, where: str) -> Any:
        """Build from JSON object `value` the class that its `key` names in
        `classes`, which maps each name to a class and the checks of its
        keys; `key` fills a field only where those checks hold it."""
        name = self.choice(self.obj(value, where).get(key), f"{where}: {key}", classes)
        cls, checks = classes[name]
        return self.build(cls, {key: None, **checks}, value, where)

    @staticmethod
    def nullable(check: Check) -> Check:
        """`check`, except that null reads as None."""
        return lambda value, what: None if value is None else check(value, what)

    def each(self, check: Check, value: Any, what: str) -> tuple:
        """A list read item by item through `check`, as a tuple."""
        return tuple(check(v, f"{what}[{i}]") for i, v in enumerate(self.items(value, what)))

    def each_value(self, check: Check, value: Any, what: str, nonempty: bool = False) -> dict:
        """An object whose values are read through `check`, in document order."""
        out = {k: check(v, f"{what}[{k!r}]") for k, v in self.obj(value, what).items()}
        if nonempty and not out:
            raise self.error(f"{what} must be a non-empty object")
        return out

    def items(self, value: Any, what: str) -> list | tuple:
        if not isinstance(value, (list, tuple)):
            raise self.error(f"{what} must be a list")
        return value

    def string(self, value: Any, what: str) -> str:
        if not isinstance(value, str):
            raise self.error(f"{what} must be a string")
        return value

    def choice(self, value: Any, what: str, options: Collection[str]) -> str:
        if not isinstance(value, str) or value not in options:
            raise self.error(f"{what} must be {'|'.join(options)}, got {value!r}")
        return value

    def boolean(self, value: Any, what: str) -> bool:
        if not isinstance(value, bool):
            raise self.error(f"{what} must be a boolean")
        return value

    def number(self, value: Any, what: str) -> float:
        """A finite int or float, not a bool, as written: an int stays an
        int, so a document that writes 0 reads back 0, not 0.0."""
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                if math.isfinite(value):
                    return value
            except OverflowError:
                pass
        raise self.error(f"{what} must be a finite number")

    def integer(self, value: Any, what: str, minimum: int | None = None, maximum: int | None = None) -> int:
        """An int, not a bool, of at least `minimum` and at most `maximum` where given."""
        bounds = [f" {op} {b}" for op, b in ((">=", minimum), ("<=", maximum)) if b is not None]
        low, high = -math.inf if minimum is None else minimum, math.inf if maximum is None else maximum
        if not isinstance(value, int) or isinstance(value, bool) or not low <= value <= high:
            raise self.error(f"{what} must be an integer{' and'.join(bounds)}")
        return value

    def strings(self, value: Any, what: str, nonempty: bool = True) -> tuple[str, ...]:
        if (
            not isinstance(value, (list, tuple))
            or (nonempty and not value)
            or not all(isinstance(v, str) for v in value)
        ):
            raise self.error(f"{what} must be a {'non-empty ' if nonempty else ''}list of strings")
        return tuple(value)

    def numbers(self, value: Any, what: str) -> tuple[float, ...]:
        return self.each(self.number, value, what)

    def number_map(self, value: Any, what: str) -> dict[str, float]:
        return self.each_value(self.number, value, what)
