"""Exception types, and the config-key check, shared across the package."""


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


def check_keys(config, allowed, what):
    """`config` if it is a JSON object whose keys all lie in `allowed`."""
    if not isinstance(config, dict):
        raise ValidationError(f"{what} must be a JSON object")
    unknown = sorted(set(config) - set(allowed))
    if unknown:
        raise ValidationError(f"unknown {what} key {unknown[0]!r}")
    return config
