"""Exception types shared across the benchmark toolkit, and the line reader
and number parser that the text inputs share."""

import math


class BenchError(Exception):
    """Base class for all toolkit errors."""


class ParseError(BenchError):
    """A text input (grid, scene, config, suite) failed to parse."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        super().__init__(prefix + message)


def keyed_lines(path, once=()):
    """Yield (line number, key, rest) for each line of the text file at
    `path` that is neither blank nor a `#` comment: `key` is its first word and
    `rest` the remainder, both stripped.  A key in `once` given a second time
    raises `ParseError` at the repeat."""
    seen = set()
    with open(path, "r", encoding="utf-8") as f:
        for ln, line in enumerate(f.read().splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, *rest = line.split(None, 1)
            if key in once:
                if key in seen:
                    raise ParseError(f"key {key!r} given twice", path=path, line=ln)
                seen.add(key)
            yield ln, key, rest[0] if rest else ""


def finite(text: str, kind=float):
    """`kind(text)` (float or int); ValueError unless it is finite."""
    value = kind(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


class ValidationError(BenchError):
    """A loaded object violates one of its invariants."""


class OutOfBoundsError(BenchError):
    """A world-coordinate query fell outside the grid."""


class NoPathError(BenchError):
    """The global planner could not connect start and goal."""


class PlanInputError(BenchError):
    """A planning request violated a precondition."""
