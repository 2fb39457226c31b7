"""Exception types shared across the package.

Every failure that a certificate can report also has an exception form for
callers that prefer raising over inspecting a FAIL node.
"""


class CertificationError(Exception):
    """Base class for all structured failures raised by this package."""


class InvalidIndex(CertificationError):
    """An integer does not decode to a valid layout index."""


class NotInjective(CertificationError):
    """A map presented as an injection has a collision."""


class NormBoundViolated(CertificationError):
    """A declared operator-norm bound is smaller than the exact norm."""


class SpaceMismatch(CertificationError):
    """Two symbolic objects live on incompatible spaces."""


class InsufficientInput(CertificationError):
    """An input word is shorter than the modulus demands."""


class InvalidBranch(CertificationError):
    """A symbol sequence leaves the alphabet of its level."""


class NoCell(CertificationError):
    """No cell of the requested resolution contains the given region."""


class LipschitzRefuted(CertificationError):
    """A declared Lipschitz constant fails on an exhibited pair of points."""


class NetTooCoarse(CertificationError):
    """A point set is not an epsilon-net at the requested scale."""


class EmptyFamily(CertificationError):
    """An operation that needs at least one member received none."""
