"""Exception types shared across the library.

Two families matter for scripting: parse/IO failures (malformed or
unreadable files) and configuration failures (shape or flag mismatches
between otherwise valid inputs).  The CLI maps the first family to exit
code 1 and the second to exit code 2.
"""


class ZacnError(Exception):
    """Base class for all library errors."""


class ConfigError(ZacnError):
    """Inconsistent shapes, flags, or parameters (CLI exit code 2)."""


class InvalidDepthError(ZacnError, ValueError):
    """Depth value is non-positive or non-finite where a valid one is required."""


class BehindCameraError(ZacnError, ValueError):
    """3D point has Z <= 0 and cannot be projected."""


class DegenerateNeighborhoodError(ZacnError):
    """Too few (or collinear) valid points to fit a plane."""


class DegenerateBasisError(ZacnError):
    """Plane normal is too close to the camera Y axis for the analytic basis."""


class ParseError(ZacnError):
    """Malformed file content (CLI exit code 1).

    Carries enough location info (path plus byte offset or line number)
    to point at the failure.
    """

    def __init__(self, message, path=None, offset=None, line=None):
        loc = ""
        if path is not None:
            loc += f"{path}: "
        if line is not None:
            loc += f"line {line}: "
        if offset is not None:
            loc += f"byte {offset}: "
        super().__init__(loc + message)
        self.path = path
        self.offset = offset
        self.line = line


class FormatError(ParseError):
    """File parsed but its dimensionality or channel layout is wrong."""


class TrainingError(ZacnError):
    """Toy training diverged (a non-finite value); names the epoch."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch
