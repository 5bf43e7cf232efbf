"""Exception types shared across the toolkit."""


class QRFError(Exception):
    """Base class for all toolkit errors."""


class IncommensurableSpectrum(QRFError):
    """A generator eigenvalue does not lie on the frame momentum lattice."""


class NotAFrameFactor(QRFError):
    """Operation requires a frame factor but got a system factor."""


class EmptyKernel(QRFError):
    """The constraint has no zero eigenvalue; no physical states exist."""


class NegativeGenerator(QRFError):
    """A generator required to be positive semi-definite has a negative eigenvalue."""


class IndexOutOfRange(QRFError, IndexError):
    """Grid index outside the orientation grid."""


class UnsupportedForm(QRFError):
    """An operator's form is unsupported: a frame-supported f_S, an unknown
    form name, a constraint, G_S or Pi not stored diagonal and hermitian,
    or ``hermitian`` asked of a composed form."""


class SameFrame(QRFError):
    """QRF transformation requires two distinct frames."""


class UnsupportedSupport(QRFError):
    """Operator support incompatible with the requested transformation."""


class NotPhysical(QRFError):
    """State is not annihilated by the constraint within tolerance."""


class IllConditionedFlow(QRFError):
    """An exponent |s| ||X||_2 too large for a reliable exp(s X) action."""


class DegreeExceeded(QRFError):
    """A product passes ``ncalg.DEGREE_CAP``, or a value its state's bound."""


class RelationViolation(QRFError):
    """A represented commutation relation fails beyond tolerance."""


class ConfigError(QRFError, ValueError):
    """Invalid run configuration or input."""


class DenseBudgetExceeded(QRFError):
    """A dense D x D form would hold more than kinspace.DENSE_BUDGET entries."""
