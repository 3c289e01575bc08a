"""Exception types and default size caps shared across the package.

Exit-code mapping used by the command line driver:

* :class:`InvalidInputError` -> 2 (malformed or out-of-contract input)
* :class:`CapExceededError` -> 3 (a size or work cap would be exceeded)
* :class:`VerificationError` -> 4 (an internal cross-check failed)
"""


class CoarseLabError(Exception):
    """Base class for all package errors."""


class InvalidInputError(CoarseLabError, ValueError):
    """Raised when an argument violates a documented precondition."""


class DisconnectedGraphError(InvalidInputError):
    """Raised when an operation requires a connected graph."""


class CapExceededError(CoarseLabError):
    """Raised when an exact computation would exceed its size cap.

    Callers can retry with a larger cap or switch to an approximate
    route where one exists.
    """


#: Iterated covers refuse to build more vertices than this by default.
COVER_VERTEX_CAP = 1 << 20

#: enumerate_pieces and check_small_cancellation refuse families with more
#: darts than this
PIECE_DART_CAP = 2000

#: graphical_presentation refuses components with larger cycle rank
PRESENTATION_RANK_CAP = 64

#: largest full Cayley graph wreath_cayley will materialize
WREATH_VERTEX_CAP = 1 << 20


class VerificationError(CoarseLabError):
    """Raised when a result fails its independent internal check."""
