"""Exception types shared across the package.

Everything that can go wrong for *physics* or *data* reasons derives from
NHSkinError, so callers (and the CLI) can distinguish domain failures from
programming mistakes, which stay plain ValueError/TypeError.
"""


class NHSkinError(Exception):
    """Base class for all domain-level failures."""


class ModelFormatError(NHSkinError):
    """A model file or model construction violates the schema invariants."""


class BuildError(NHSkinError):
    """Real-space assembly is impossible (hopping range, sizes, ...)."""


class EigensolverError(NHSkinError):
    """The dense eigensolver failed to converge."""


class GapClosedError(NHSkinError):
    """Point gap closed at the requested base energy; winding undefined."""


class DegenerateCharPolyError(NHSkinError):
    """Leading/trailing characteristic coefficient vanishes (no finite GBZ)."""


class SamplingError(NHSkinError):
    """A sampling plan is empty, or too few of its samples gave a result."""


class EPVicinityError(NHSkinError):
    """Left/right pairing broke down (|<L|R>| ~ 0); biorthogonal data refused."""


class SingularProbeError(NHSkinError):
    """Resolvent requested at (or too close to) an eigenvalue."""


class AmbiguousTargetError(NHSkinError):
    """Eigenvalue tracking found two indistinguishable candidates."""


class StepSizeError(NHSkinError):
    """Time step too large for the propagator guard."""
