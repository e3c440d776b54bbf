"""Exception hierarchy shared across the package."""


class DeathcastError(Exception):
    """Base class for every error this package raises on purpose."""


class UsageError(DeathcastError):
    """An option value from the environment or a config file is invalid."""


class MalformedRecord(DeathcastError):
    """A match file line is not syntactically valid; carries the line number."""

    def __init__(self, line_no, message):
        # both arguments stay in args, so pickling (a worker process handing
        # the error back) rebuilds it with the same class and text
        super().__init__(line_no, message)
        self.line_no = line_no

    def __str__(self):
        return f"line {self.args[0]}: {self.args[1]}"


class SchemaViolation(DeathcastError):
    """Structured data is present but breaks a field or invariant contract."""


class EmptyMatch(DeathcastError):
    """A match ended up with zero frames."""


class SchemaMismatch(DeathcastError):
    """Two artifacts built for different feature schemas were combined."""


class InvalidFrame(DeathcastError):
    """A frame index is out of range or inconsistent with history state."""


class EmptyStream(DeathcastError):
    """An aggregation was asked to run over zero samples."""


class NonPositiveWindow(DeathcastError):
    """The look-ahead window must be strictly positive seconds."""


class ChecksumMismatch(DeathcastError):
    """Stored checksum does not match the bytes read back."""


class VersionMismatch(DeathcastError):
    """File magic, version or schema-variant tag is not the expected one."""


class InsufficientPositives(DeathcastError):
    """No hero slot has enough positive and negative samples for a batch."""


class InvalidArchitecture(DeathcastError):
    """A layer list contains a non-positive width."""


class ShapeMismatch(DeathcastError):
    """Array shapes disagree with the model configuration."""


class NonFiniteGradient(DeathcastError):
    """A gradient contained NaN or infinity."""


class NoPositives(DeathcastError):
    """Ranking metrics need at least one positive label."""


class LengthMismatch(DeathcastError):
    """Paired vectors have different lengths."""


class ConstantInput(DeathcastError):
    """Rank correlation is undefined for a constant vector."""


class InvalidConfig(DeathcastError):
    """A generator or pipeline configuration violates its own invariants."""


class ForeignMatch(DeathcastError):
    """A match record was not produced by the generator config in hand."""
