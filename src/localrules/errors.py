"""Exception taxonomy.

Everything raised on bad input data derives from DataError so the CLI can map
it to one exit code; programming errors stay ordinary Python exceptions.
"""


class LocalRulesError(Exception):
    """Base class for all package-specific errors."""


class DataError(LocalRulesError):
    """A problem with user-supplied data or data-dependent preconditions."""


class BadParams(LocalRulesError):
    """A tuning parameter is outside its documented range (a usage error)."""


class SchemaMismatch(DataError):
    """CSV header or row shape disagrees with the schema."""


class MalformedCsv(DataError):
    """The CSV text cannot be split into records (bad quoting, oversized field)."""


class BadValue(DataError):
    """A cell token cannot be interpreted under its declared attribute kind."""


class NoClassColumn(DataError):
    pass


class NonBinaryClass(DataError):
    pass


class IndexOutOfRange(DataError):
    pass


class LengthMismatch(DataError):
    pass


class EmptyInput(DataError):
    pass


class WrongKind(DataError):
    """Operation applied to an attribute kind it is not defined for."""


class MissingGrid(DataError):
    """Level encoding requested for an attribute that has no level grid."""


class DegenerateClassDistribution(DataError):
    """A class value has zero training rows; quality is undefined."""


class NoComponents(DataError):
    pass


class SingleClassTraining(DataError):
    pass


class TooFewRows(DataError):
    pass


class TooManyComponents(DataError):
    """Exhaustive reference enumeration guard (it is exponential by design)."""
