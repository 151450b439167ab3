"""Exception hierarchy shared by all decomap modules."""


class DecomapError(Exception):
    """Base class for all library errors."""


class NonFinite(DecomapError):
    """Input contains NaN or Inf entries."""


class NotHermitian(DecomapError):
    """Matrix deviates from its adjoint beyond tolerance."""


class InvalidOption(DecomapError):
    """Numerical option outside its valid range."""


class ShapeMismatch(DecomapError):
    """Operands have incompatible shapes."""


class LayoutMismatch(DecomapError):
    """Tensor layout inconsistent with the matrix it annotates."""


class NotDensity(DecomapError):
    """Matrix is not a density matrix (trace one, Hermitian)."""


class NotFaithful(DecomapError):
    """Density matrix is singular (state not faithful)."""


class NotInCone(DecomapError):
    """Vector fails the requested cone membership."""


class UnsupportedKind(DecomapError):
    """Cone kind not supported by this operation."""


class BadChoi(DecomapError):
    """Explicit Choi matrix is malformed."""


class UnknownKind(DecomapError):
    """Registry key does not name a built-in map."""


class DimensionMismatch(DecomapError):
    """Map and state dimensions disagree."""


class NoDetailedBalance(DecomapError):
    """Operation requires a detailed-balance adjoint that does not exist."""


class NotUnital(DecomapError):
    """Map fails the unitality requirement."""


class NotPositiveEvidence(DecomapError):
    """Positivity search produced a violation witness."""


class NotInFace(DecomapError):
    """Map is not a member of the requested maximal face."""


class ParseError(DecomapError):
    """Malformed input file or request."""
