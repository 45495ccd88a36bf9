"""Exception hierarchy for the operad calculus."""


class OperadError(Exception):
    """Base class for all errors raised by this package."""


class DimMismatchError(OperadError):
    """Operands live over modules of different dimension."""


class VarianceMismatchError(OperadError):
    """Endomorphism and coendomorphism operations were mixed."""


class BackendMismatchError(OperadError):
    """Exact and floating-point operands were mixed."""


class ShapeMismatchError(OperadError):
    """Coefficient data does not match the declared dimension and degree."""


class DegreeMismatchError(OperadError):
    """Operands of different degree where equal degree is required."""


class ArityMismatchError(OperadError):
    """Wrong number of vector arguments for an operation's degree."""


class SlotOutOfRangeError(OperadError, IndexError):
    """Composition slot index outside 0..deg-1."""


class SizeCapError(OperadError):
    """Requested coefficient tensor exceeds the hard size cap."""


class DegreeUnderflowError(OperadError):
    """An operation would land in negative degree, which does not exist."""


class NotAssociativeError(OperadError):
    """A multiplication required to be associative has a nonzero associator."""


class NonFiniteError(OperadError):
    """A non-finite coefficient appeared during floating-point integration."""


class ConfigError(OperadError):
    """Bad run configuration (flags, file contents, missing inputs)."""


class MissingInitialOpError(ConfigError):
    """Degree >= 2 without an initial operation: no canonical one exists."""


class ParseError(OperadError):
    """Malformed input file."""
