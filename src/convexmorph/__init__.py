"""Convexifying morphs of planar straight-line drawings.

Exact rational arithmetic throughout; float input coordinates enter as the
rationals they denote.
"""

__version__ = "0.1.0"

from .plane_graph import (
    PlaneGraph,
    Drawing,
    AngleKind,
    ReflexKind,
    AngleStatus,
    AngleRef,
    rat,
    sign_of,
    orientation,
    trace_faces,
    angle_status,
    is_strictly_convex,
    convex_hull,
    shear,
    choose_safe_shear,
    ShearConstraints,
    EmbeddingInvalid,
    DegenerateAngle,
    AllCollinear,
    NoValidShear,
    NotPlanarInput,
    PreconditionViolated,
)
