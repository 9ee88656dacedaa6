"""Exception hierarchy shared by all modules."""


class GradAlgError(Exception):
    """Base class for all errors raised by this package.  ``witness``,
    passed by keyword, is the data that shows the failure, when one is
    carried (the flag, degree, automorphism and verification checks)."""

    def __init__(self, *args, witness=None):
        super().__init__(*args)
        self.witness = witness


class ShapeError(GradAlgError):
    """Matrix or vector dimensions do not match."""


class NonSplitError(GradAlgError):
    """A spectrum is not rational: some irreducible factor of the
    characteristic (or minimal) polynomial has degree > 1 over the rationals."""


class NotCommutingError(GradAlgError):
    """Operators expected to commute do not."""


class NotDiagonalizableError(GradAlgError):
    """An operator expected to be diagonalizable has a repeated root in its
    minimal polynomial."""


class CapExceeded(GradAlgError):
    """An enumeration would exceed the configured size cap."""


class FlagViolation(GradAlgError):
    """An asserted algebra property (lie, associative) fails; carries a witness."""


class IncompatibleDegrees(GradAlgError):
    """A degree assignment violates grading compatibility; carries a witness."""


class NotAutomorphism(GradAlgError):
    """A supplied linear map is not an algebra automorphism."""


class NotASubgroup(GradAlgError):
    """A supplied subgroup does not live inside the expected group."""


class NotARefinement(GradAlgError):
    """A grading supplied as a refinement is not one."""


class IdentityComponentNotCartan(GradAlgError):
    """The identity component of a supplied refinement is not the expected
    Cartan subspace."""


class SectionInvalid(GradAlgError):
    """A supplied section does not map into the required fibers."""


class VerificationFailure(GradAlgError):
    """A structural verification failed; carries a witness."""


class AxiomFailure(GradAlgError):
    """Internal consistency error: a property guaranteed by theory failed."""


class DegenerateRetryExhausted(GradAlgError):
    """Random generic-element retries were exhausted."""


class WorkspaceError(GradAlgError):
    """Base class for input-file problems."""


class ParseError(WorkspaceError):
    pass


class CrossRefError(WorkspaceError):
    pass


class ValidationError(WorkspaceError):
    pass


class UnknownCatalogEntry(GradAlgError):
    pass
