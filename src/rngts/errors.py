"""Exception types shared across the suite."""


class ConfigurationError(ValueError):
    """Invalid parameters, registry lookups, or stream setup."""


class ReportParseError(ConfigurationError):
    """A result document violates the expected XML shape."""


class StreamExhausted(RuntimeError):
    """A bounded stream (file, pipe) ran out of raw outputs mid-test.

    `available` is the number of outputs the stream still holds: a read
    of at most that many succeeds.
    """

    def __init__(self, message: str, available: int = 0):
        super().__init__(message)
        self.available = available


class TestAborted(RuntimeError):
    """A test could not complete; distinct from a statistical failure.

    Its message is the human-readable reason that ends up in the report.
    """
