"""Nets of planar vertex stars and their doubly ruled quadric extensions.

The package builds quad meshes as integer arrays (:mod:`hypnet.quadgraph`),
validates vertex-star planarity and genericity (:mod:`hypnet.anet`),
attaches and propagates one doubly ruled quadric per face
(:mod:`hypnet.hyperboloid`), carves and samples the bounded patches
(:mod:`hypnet.patch`), optimizes noisy nets back to planarity
(:mod:`hypnet.fit`), and reads/writes quad meshes (:mod:`hypnet.meshio`).
The :mod:`hypnet.cli` module exposes all of it as ``hypnet check``,
``hypnet fit``, and ``hypnet extend``.
"""

from .anet import ANet, FaceFrame, diagnose_anet, validate_anet
from .errors import (
    AnetError,
    ClosureViolation,
    DidNotConverge,
    GeometryError,
    HypnetError,
    MeshError,
    NoAdaptedPatch,
    NonQuadFace,
    OddVertexDegree,
    ParseError,
    PatchError,
    PropagationError,
)
from .fit import FitProblem, energy, fit, gradient
from .hyperboloid import (
    FaceHyperboloid,
    hyperboloid_from_parameter,
    propagate_all,
    transport_parameter,
)
from .meshio import oriented_grid, read_mesh, write_mesh, write_positions_mesh
from .patch import (
    HyperboloidPatch,
    PatchStack,
    bilinear_parameter,
    bilinear_patches,
    check_c1,
    restrict_all,
    restrict_to_patch,
    sample,
    sample_all,
)
from .plucker import (
    incidence_matrix,
    intersect_lines,
    line_from_points,
    plucker_product,
    Tolerances,
)
from .quadgraph import QuadGraph, build

__version__ = "0.1.0"

__all__ = [
    "ANet",
    "AnetError",
    "ClosureViolation",
    "DidNotConverge",
    "FaceFrame",
    "FaceHyperboloid",
    "FitProblem",
    "GeometryError",
    "HyperboloidPatch",
    "HypnetError",
    "MeshError",
    "NoAdaptedPatch",
    "NonQuadFace",
    "OddVertexDegree",
    "ParseError",
    "PatchError",
    "PatchStack",
    "PropagationError",
    "QuadGraph",
    "Tolerances",
    "bilinear_parameter",
    "bilinear_patches",
    "build",
    "check_c1",
    "diagnose_anet",
    "energy",
    "fit",
    "gradient",
    "hyperboloid_from_parameter",
    "incidence_matrix",
    "intersect_lines",
    "line_from_points",
    "oriented_grid",
    "plucker_product",
    "propagate_all",
    "read_mesh",
    "restrict_all",
    "restrict_to_patch",
    "sample",
    "sample_all",
    "transport_parameter",
    "validate_anet",
    "write_mesh",
    "write_positions_mesh",
    "__version__",
]
