"""Convexifying morphs of planar straight-line drawings.

Exact rational arithmetic throughout; float input coordinates enter as the
rationals they denote.
"""

__version__ = "0.1.0"

from .morph_engine import (
    ConvexifyError,
    GraphNotRestored,
    MoveBudgetExceeded,
    NotInternallyThreeConnected,
    PocketNotSeparated,
    PostconditionFailed,
    ReflexNotRetired,
    convexify,
)
from .plane_graph import (
    Drawing,
    EmbeddingInvalid,
    NotPlanarInput,
    PlaneGraph,
    PreconditionViolated,
    build_plane_graph_from_points,
    is_strictly_convex,
    orientation,
    rat,
)
from .steps import Direction, MorphSequence, MorphStep
from .verify import (
    check_convexity_increasing,
    check_step_bounds,
    check_unidirectional_planar,
)

__all__ = [
    # the pipeline
    "convexify", "MorphSequence", "MorphStep", "Direction", "Drawing",
    "PlaneGraph", "build_plane_graph_from_points",
    # its errors
    "ConvexifyError", "PostconditionFailed", "ReflexNotRetired",
    "MoveBudgetExceeded", "PocketNotSeparated", "GraphNotRestored",
    "NotPlanarInput", "NotInternallyThreeConnected", "PreconditionViolated",
    "EmbeddingInvalid",
    # the certificates
    "check_unidirectional_planar", "check_convexity_increasing",
    "check_step_bounds", "is_strictly_convex",
    # exact arithmetic
    "rat", "orientation",
]
