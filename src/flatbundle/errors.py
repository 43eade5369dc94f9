"""Exception types shared across the package."""


class FlatBundleError(Exception):
    """Base class for all package errors."""


class NonPlanarPolygon(FlatBundleError):
    """A polygon is not simple/convex or is negatively oriented."""


class GluingMismatch(FlatBundleError):
    """Paired edges are not parallel of equal length with opposite orientation."""


class GenusTooSmall(FlatBundleError):
    """The glued surface has genus < 2."""


class ConeAngleInvalid(FlatBundleError):
    """A cone angle is not a positive multiple of pi within tolerance."""


class CutoffTooLarge(FlatBundleError):
    """An enumeration exceeded its work budget."""


class NotAConnection(FlatBundleError):
    """A traced segment fails to be a saddle connection."""


class NotAGeodesic(FlatBundleError):
    """A concatenation violates the angle >= pi condition at a junction."""


class BallExceeded(FlatBundleError):
    """A geodesic query left the configured unfolding ball."""


class NotOnBoundary(FlatBundleError):
    """A point expected on the boundary circle is not on it."""


class NotInDisk(FlatBundleError):
    """A point expected inside the open unit disk is not inside it."""


class NonInvertible(FlatBundleError):
    """A matrix is singular or not of unit determinant within tolerance."""


class DegenerateTriple(FlatBundleError):
    """Boundary points expected distinct coincide within tolerance."""


class NotAnAutomorphism(FlatBundleError):
    """A matrix does not induce an automorphism of the flat structure."""


class ElementaryGroup(FlatBundleError):
    """The sampled limit set has fewer than three points."""


class DirectionInsideHullNotParabolic(FlatBundleError):
    """A saddle direction sits inside the hull arcs but no parabolic witness exists."""


class NoCylinders(FlatBundleError):
    """A direction traced to closure but produced no cylinder."""


class MissingHoroRegion(FlatBundleError):
    """A saddle direction has no entry in the horoball family."""


class NotReducible(FlatBundleError):
    """A triangle could not be decomposed further into fans."""


class NotAFan(FlatBundleError):
    """A triangle does not have two single-connection sides."""


class NotFound(FlatBundleError):
    """A bounded search ended without a result."""


class UnknownCatalogId(NotFound):
    """A surface or group name is not in the catalog."""


class MissingInput(FlatBundleError):
    """A rendering was requested without the inputs it needs."""


class NoClosureFound(FlatBundleError):
    """A separatrix exceeded the trace budget without closing up.

    This is a *value-like* outcome: callers of direction tracing receive it as
    a result rather than an exception unless they opt into raising.
    """
