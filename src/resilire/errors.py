"""Exception types shared across the library."""


class ResilError(Exception):
    """Base class for all library errors."""


class BackendMismatch(ResilError):
    """States from different backends (or wrong shape) were mixed."""


class ModelError(ResilError):
    """Validation of a model document failed.

    Carries a list of (location, message) pairs where location is a
    JSON-pointer-style path into the offending document.
    """

    def __init__(self, issues):
        self.issues = list(issues)
        lines = ["%s: %s" % (loc, msg) for loc, msg in self.issues]
        super().__init__("invalid model:\n  " + "\n  ".join(lines))


class GuardExceeded(ResilError):
    """An overlap size guard (`overlap_nodes`, `overlap_count`) tripped."""


class SaturationExhausted(ResilError):
    """The iteration guard was hit before saturation settled, or forward
    exploration exceeded its depth or state cap.

    Distinct from an 'unbounded' answer: this is an inconclusive abort.
    """

