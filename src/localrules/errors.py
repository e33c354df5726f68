"""The two package errors, one per CLI exit code.

Bad input data, or a data-dependent precondition that fails, raises DataError
(exit 2); a tuning parameter outside its range raises BadParams (exit 1). The
message says what went wrong. Programming errors stay ordinary Python
exceptions.
"""


class DataError(Exception):
    """A problem with user-supplied data or data-dependent preconditions."""


class BadParams(Exception):
    """A tuning parameter is outside its documented range (a usage error)."""
