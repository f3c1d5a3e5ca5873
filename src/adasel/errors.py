"""Exception types raised by the library.

Everything derives from :class:`AdaselError` so callers can catch the
library's failures with a single except clause; the CLI maps them to
exit codes.
"""


class AdaselError(Exception):
    """Base class for all library errors."""


# --- linear algebra / subspace errors

class DimensionMismatch(AdaselError):
    """Operands disagree in ambient or subspace dimension."""


class RankDeficient(AdaselError):
    """Data matrix has lower rank than the requested subspace dimension."""


class NonFiniteFeatures(AdaselError, ValueError):
    """Feature values include NaN or Inf."""


class NotOrthonormal(AdaselError):
    """Matrix expected to have orthonormal columns does not."""


class OutOfRange(AdaselError):
    """Scalar parameter outside its documented range."""


# --- design-time errors

class TooFewSamples(AdaselError):
    """A cluster ended up with too few members to build its subspace."""


class InvalidM(AdaselError):
    """Requested scenario count is not usable for the given data."""


class NoFeasiblePlatform(AdaselError):
    """No platform satisfies the cost and error constraints; the message
    gives each platform's cost and best achievable mean error."""


class MissingRecord(AdaselError):
    """Performance table lacks a required (scenario, combo, platform) entry."""


class UnlabeledScenario(AdaselError):
    """Scenario has no best-combo label for the requested platform."""


# --- runtime errors

class EmptyStream(AdaselError):
    """Feature stream contains no frames."""


class TooFewFrames(AdaselError):
    """Window holds fewer frames than the subspace dimension allows."""


class DegenerateWindow(AdaselError):
    """Window has zero variance; no subspace comparison is possible."""


# --- harness errors

class Misaligned(AdaselError):
    """Trace and ground truth do not describe the same windows."""


class ConfigInvalid(AdaselError):
    """Synthetic-data configuration is not generatable."""


# --- file format errors

class BadMagic(AdaselError):
    """File does not start with the expected magic bytes."""


class TruncatedPayload(AdaselError):
    """Binary payload size disagrees with the header."""


class DimensionOverflow(AdaselError):
    """Header declares a matrix too large to address."""


class UnsupportedVersion(AdaselError):
    """File was written by a future format version."""


class DuplicateKey(AdaselError):
    """A file repeats an id, or a performance-table triple."""


class NegativeError(AdaselError):
    """Performance table contains a negative error value."""


class MalformedRow(AdaselError):
    """CSV row cannot be parsed."""


class ManifestInvalid(AdaselError):
    """JSON document is malformed, or inconsistent with its matrix files."""
