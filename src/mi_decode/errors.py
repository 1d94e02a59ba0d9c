"""Error types raised across the pipeline.

Every failure mode that callers are expected to handle gets its own class so
that tests and the CLI can react to the exact condition rather than parsing
messages.
"""


class DecodeError(Exception):
    """Base class for all pipeline errors."""


# --- session I/O ---

class MissingFile(DecodeError):
    pass


class MalformedMeta(DecodeError):
    pass


class LengthMismatch(DecodeError):
    pass


class UnsortedEvents(DecodeError):
    pass


class IoFailure(DecodeError):
    pass


class RaggedRows(DecodeError):
    pass


class NonNumericCell(DecodeError):
    pass


class UnknownEventCode(DecodeError):
    pass


class NonFiniteSample(DecodeError):
    pass


# --- dsp ---

class InvalidBand(DecodeError):
    pass


class ChannelCountMismatch(DecodeError):
    pass


class TooFewChannels(DecodeError):
    pass


class OrphanMarker(DecodeError):
    pass


class OverlappingTrials(DecodeError):
    pass


class TrialTooShort(DecodeError):
    pass


class NonIntegerWindow(DecodeError):
    pass


# --- features ---

class BadK(DecodeError):
    pass


class WindowTooShort(DecodeError):
    pass


class DimensionMismatch(DecodeError):
    pass


# --- classify ---

class SingleClass(DecodeError):
    pass


# --- evidence ---

class InvalidThreshold(DecodeError):
    pass


class EmptyTrial(DecodeError):
    pass


class NoTrials(DecodeError):
    pass


class EmptyGrid(DecodeError):
    pass


# --- eval / orchestration ---

class TooFewRuns(DecodeError):
    pass


class LayoutMismatch(DecodeError):
    pass


class BadSpec(DecodeError):
    pass


class MissingSession(DecodeError):
    pass
