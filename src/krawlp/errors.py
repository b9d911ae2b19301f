"""Exception hierarchy shared by all krawlp modules, and the two halves of
the JSON contract: ``canonical_json`` is the one encoder of every record,
artifact and cache payload (sorted keys, no spaces, so equal values give
equal bytes), and ``parsing`` turns the built-in errors of reading one
back into ``InvalidInputError``.  Each error class has one ``krawlp``
exit code: ``InvalidInputError`` 2, ``CapacityError`` 3, and the three
internal failures 4 (their stdout record names the class)."""

import json
from contextlib import contextmanager
from typing import Iterable, Iterator


class KrawlpError(Exception):
    """Base class for all library errors."""


class InvalidInputError(KrawlpError, ValueError):
    """A refused argument or input (exit 2): malformed (a wrong type, bad
    JSON, mismatched lengths), out of range (a parameter outside its
    documented range, an unknown name), a weight vector that is not a
    configuration, or a code that is not linear where a linear one is needed."""


class CapacityError(KrawlpError, RuntimeError):
    """A requested computation exceeds its size budget (exit 3).

    The message always states the budget that was exceeded so callers can
    report it.
    """


class IterationLimitError(KrawlpError, RuntimeError):
    """An iterative solver hit its pivot/iteration cap without an answer (exit 4)."""


class SolverNumericsError(KrawlpError, RuntimeError):
    """The floating-point solver reported numerical trouble (exit 4)."""


class SelfCheckError(KrawlpError, RuntimeError):
    """An internal re-verification pass failed; the result was discarded (exit 4)."""


def canonical_json(value: object) -> str:
    """``value`` as JSON with sorted keys and no spaces: one text per value."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@contextmanager
def parsing(what: str) -> Iterator[None]:
    """Re-raise the built-in errors of reading ``what`` (bad JSON, a missing
    key, a wrong type, a bad number) as ``InvalidInputError``."""
    try:
        yield
    except KrawlpError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed {what}: {exc!r}") from exc


def require_int(value: object, what: str, low: int | None = None) -> int:
    """``value`` itself if it is an int (not a bool) and not below ``low``;
    otherwise ``InvalidInputError``.  Read integer fields through it."""
    if type(value) is not int or (low is not None and value < low):
        floor = "" if low is None else f" >= {low}"
        raise InvalidInputError(f"{what} must be an int{floor}, got {value!r}")
    return value


def require_ints(values: Iterable[object], what: str) -> None:
    """``InvalidInputError`` naming the types of ``values`` that are not
    exactly int (a float, a bool, a ``Fraction``), if any."""
    kinds = set(map(type, values)) - {int}
    if kinds:
        raise InvalidInputError(f"{what} must be ints, got {sorted(k.__name__ for k in kinds)}")


def require_list(value: object, what: str) -> list:
    """``value`` itself if it is a list; otherwise ``InvalidInputError``."""
    if type(value) is not list:
        raise InvalidInputError(f"{what} must be a list, got {value!r}")
    return value
