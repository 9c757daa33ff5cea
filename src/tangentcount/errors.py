"""Shared exception for violated internal invariants.

Raised when an exact computation produces something structurally impossible
(a non-integer curve count, a splitting system whose determinant breaks
the law |det A| = (k-1)!, a computed value that contradicts its cache
record).  The command-line driver maps it to exit status 3.
"""


class InconsistencyError(RuntimeError):
    """An internal invariant failed; results cannot be trusted."""
