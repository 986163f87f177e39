"""Field checks shared by every reader of a JSON document.

Spec parsing, generator configs and schema documents read their fields
through one `JsonChecks` each, so a string, a number or a list of them means
the same thing in every document. A reader binds the error class it raises
(`InvalidSpec`, `ConfigError`, `SchemaError`); each check takes the value and
a label naming it in the document, and returns the value in parsed form.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any, Collection, Mapping

from .errors import SdgError


def loads(data: bytes | str, error: type[SdgError]) -> Any:
    """Parse JSON text whose numbers all fit a finite double: a canonical
    digest has no form for NaN or infinities, and a larger integer overflows
    a field read as a float. Bad UTF-8, syntax, numbers or nesting deeper
    than the interpreter's recursion limit raise `error`."""
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
        return json.loads(
            data, parse_constant=double, parse_float=double, parse_int=lambda s: double(s, int)
        )
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
        """A finite int or float, not a bool, as a float."""
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                x = float(value)
            except OverflowError:
                pass
            else:
                if math.isfinite(x):
                    return x
        raise self.error(f"{what} must be a finite number")

    def integer(self, value: Any, what: str, minimum: int | None = None) -> int:
        """An int, not a bool, of at least `minimum` when given."""
        bound = "" if minimum is None else f" >= {minimum}"
        if not isinstance(value, int) or isinstance(value, bool) or (bound and value < minimum):
            raise self.error(f"{what} must be an integer{bound}")
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
        return tuple(self.number(v, f"{what}[{i}]") for i, v in enumerate(self.items(value, what)))

    def number_map(self, value: Any, what: str) -> dict[str, float]:
        """An object whose values are numbers, in document order."""
        return {k: self.number(v, f"{what}[{k!r}]") for k, v in self.obj(value, what).items()}
