"""Exception types, and the input readers that raise them: `from_json`
reads a JSON config into its dataclass, whose fields alone give its keys,
value types and defaults; `read_json` and `read_jsonl` read files.  Every
input failure is a one-line `ValidationError`."""

import dataclasses
import json
import types
import typing


class NspBertError(Exception):
    """Base class for all package errors."""


class ValidationError(NspBertError):
    """Bad user input: malformed data files, configs, labels, spans."""


class DimensionError(NspBertError):
    """Shape mismatch between tensors."""


class DivergenceError(NspBertError):
    """Training produced a non-finite loss."""


class CheckpointError(NspBertError):
    """Base class for checkpoint file problems."""


class CheckpointFormatError(CheckpointError):
    """File is not a checkpoint (bad magic or unreadable header)."""


class CheckpointTruncatedError(CheckpointError):
    """File ends before all tensor data declared in the header."""


class CheckpointShapeError(CheckpointError):
    """A stored tensor's shape disagrees with the model config."""


_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "a list", tuple: "a list", dict: "an object", type(None): "null"}


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def check_type(tp, value, what):
    """`value` as a `tp`: bool is not a number, an int fills a float, a list
    fills a tuple, a string must encode as UTF-8, `X | None` accepts null and
    a dataclass recurses.  `what` names the value in errors."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return check_type(tp, value, what)
    if dataclasses.is_dataclass(tp):
        return from_json(tp, value, what)
    base = origin or tp
    if base is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif base is int:
        ok = is_int(value)
    else:
        ok = isinstance(value, list if base is tuple else base)
    if not ok:
        got = _TYPE_NAMES.get(type(value), type(value).__name__)
        raise ValidationError(f"{what} must be {_TYPE_NAMES[base]}, not {got}")
    if base is str:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as e:  # a JSON escape of a lone surrogate
            raise ValidationError(f"{what} is not UTF-8 text") from e
    if base in (list, tuple) and args:
        return base(check_type(args[0], v, f"{what}[{i}]") for i, v in enumerate(value))
    if base is dict and args:
        return {k: check_type(args[1], v, f"{what}[{k!r}]") for k, v in value.items()}
    return value


def from_json(cls, value, what):
    """The dataclass `cls` built from the JSON object `value`.  Its keys are
    the field names, each value must fit its field's annotation, and a field
    with no default must be present.  `what` names the object in errors."""
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be a JSON object")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(value) - {f.name for f in fields})
    if unknown:
        raise ValidationError(f"unknown {what} key {unknown[0]!r}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in fields:
        if f.name in value:
            kwargs[f.name] = check_type(hints[f.name], value[f.name], f"{what} {f.name!r}")
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ValidationError(f"{what} needs key {f.name!r}")
    return cls(**kwargs)


def _utf8(text, path, lineno):
    """`text` unless it holds an undecodable byte, which `surrogateescape`
    decoding kept as a lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as e:
        line = lineno + text.count("\n", 0, e.start)
        raise ValidationError(f"{path}:{line}: not UTF-8 text") from e
    return text


def read_json(path, what):
    """The JSON value in the file at `path`."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        text = _utf8(f.read(), path, 1)
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # too deeply nested
        raise ValidationError(f"{path}:{getattr(e, 'lineno', 1)}: malformed {what}: {e}") from e


def read_jsonl(path, what):
    """(line number, JSON object) for each nonblank line of the file at `path`."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if not _utf8(line, path, lineno).strip():
                continue
            try:
                rec = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as e:
                raise ValidationError(f"{path}:{lineno}: malformed JSON: {e}") from e
            if not isinstance(rec, dict):
                raise ValidationError(f"{path}:{lineno}: {what} must be a JSON object")
            yield lineno, rec
