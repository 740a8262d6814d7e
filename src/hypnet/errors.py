"""Exception types for the hypnet package.

The hierarchy mirrors the pipeline stages: raw geometry, mesh
combinatorics, A-net validation, hyperboloid propagation, patch
restriction, optimization, and file I/O.  Every exception derives from
:class:`HypnetError` so callers can catch the whole family at once.
"""

from __future__ import annotations


class HypnetError(Exception):
    """Base class for all package specific errors."""


# --- projective / line geometry ---------------------------------------


class GeometryError(HypnetError):
    """Base class for errors of the projective core."""


class CoincidentPoints(GeometryError):
    """Two points that should span a line are projectively equal."""


class SkewLines(GeometryError):
    """Two lines expected to intersect are skew."""


class CoincidentLines(GeometryError):
    """Two lines expected to be distinct are projectively equal."""


class ZeroSpan(GeometryError):
    """All generators passed to span() are numerically zero."""


class NumericallyInfinitePoint(GeometryError):
    """A homogeneous point is too close to the plane at infinity."""


# --- quad graph combinatorics ------------------------------------------


class MeshError(HypnetError):
    """Base class for combinatorial mesh errors."""


class NotAQuad(MeshError):
    """A face is not a quadrilateral with four distinct vertices."""


class NonManifold(MeshError):
    """An edge with more than two incident faces, or a bow-tie vertex."""


class NonOrientable(MeshError):
    """No globally consistent face orientation exists."""


class NotStronglyRegular(MeshError):
    """Two faces share more than one edge, or a face is glued to itself."""


class DisconnectedMesh(MeshError):
    """The face adjacency graph is not connected."""


class ClosedStripDetected(MeshError):
    """A strip closed up on itself; the complex is not simply connected."""


# --- A-net validation ----------------------------------------------------


class AnetError(HypnetError):
    """Base class for A-net validation failures."""

    def __init__(self, message: str, **data):
        super().__init__(message)
        self.data = data


class NonPlanarStar(AnetError):
    """A vertex star deviates from a common plane beyond tolerance."""


class DegenerateFace(AnetError):
    """A face is planar (or numerically indistinguishable from planar)."""


class NonGenericPair(AnetError):
    """Two asymptotic lines violate the genericity assumptions."""


# --- hyperboloid family / propagation ------------------------------------


class PropagationError(HypnetError):
    """Base class for hyperboloid construction and transport errors."""

    def __init__(self, message: str, **data):
        super().__init__(message)
        self.data = data


class DegenerateParameter(PropagationError):
    """Family parameter hits a degenerate value (0 or infinity)."""


class ProjectionDegenerate(PropagationError):
    """Projection center and target line are not in general position."""


class OddVertexDegree(PropagationError):
    """An interior vertex of odd degree obstructs consistent propagation."""


class ClosureViolation(PropagationError):
    """Propagation around a cycle fails to reproduce the seed data."""


# --- patch restriction ----------------------------------------------------


class PatchError(HypnetError):
    """Base class for patch restriction errors."""

    def __init__(self, message: str, **data):
        super().__init__(message)
        self.data = data


class NoAdaptedPatch(PatchError):
    """The member bounds no patch over the quad: its cross-ratio is not
    positive."""


# --- optimization ----------------------------------------------------------


class DidNotConverge(HypnetError):
    """Optimizer exhausted its budget; carries the final state."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


# --- file I/O ---------------------------------------------------------------


class ParseError(HypnetError):
    """Malformed input mesh file."""


class NonQuadFace(ParseError):
    """An input face record does not have exactly four vertex indices."""
