"""Exception types shared across the toolkit, and the config type check.

The CLI maps each family to a distinct exit code; library code raises plain
ValueError / IndexError / RuntimeError for local contract violations and these
types for configuration and file-level problems.
"""

import dataclasses
import math


class ToolkitError(Exception):
    """Base class for errors the CLI reports with a category tag."""

    exit_code = 1
    category = "error"


class ConfigError(ToolkitError):
    """Invalid or inconsistent configuration values."""

    exit_code = 2
    category = "config"


class SchemaError(ToolkitError):
    """Structurally valid file whose contents do not match expectations."""

    exit_code = 3
    category = "schema"


class ParseError(ToolkitError):
    """Malformed file content. Carries the 1-based line number."""

    exit_code = 3
    category = "parse"

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def check_field_types(config) -> None:
    """Raise ConfigError unless every ``int``, ``float`` or ``str`` field of
    the dataclass ``config`` holds its type: integers and floats exclude
    bools, floats accept integers and must be finite."""
    for f in dataclasses.fields(config):
        kind = getattr(f.type, "__name__", f.type)  # the annotation, maybe a string
        value = getattr(config, f.name)
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if kind == "int" and not (number and isinstance(value, int)):
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        if kind == "float" and not (number and math.isfinite(value)):
            raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
        if kind == "str" and not isinstance(value, str):
            raise ConfigError(f"{f.name} must be a string, got {value!r}")
