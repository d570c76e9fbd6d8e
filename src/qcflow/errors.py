"""Exception hierarchy shared across the package."""


class QcflowError(Exception):
    """Base class for all errors raised by qcflow. ``faces`` lists the
    offending face ids, empty when an error names none."""

    def __init__(self, message, faces=None):
        super().__init__(message)
        self.faces = list(faces) if faces is not None else []


class ParseError(QcflowError):
    """Malformed input file (bad OBJ/JSON record, index out of range)."""


class TopologyError(QcflowError):
    """Mesh connectivity violates a structural invariant."""


class MetricError(QcflowError):
    """Edge-length assignment is invalid (non-positive, overflow, or
    triangle inequality broken on some face)."""


class SolverError(QcflowError):
    """Newton system is singular (disconnected mesh or degenerate metric),
    so the sparse LU factorization has no unique solution."""


class FlowError(QcflowError):
    """Curvature flow failed (infeasible target, non-convergence,
    inadmissible metric at every step length)."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SurgeryError(QcflowError):
    """Edge swap is not possible (boundary edge, duplicate edge,
    non-convex quad)."""


class BeltramiError(QcflowError):
    """Beltrami field or map estimation is invalid."""


class LayoutError(QcflowError):
    """Isometric embedding failed (non-disk input, non-flat interior,
    inconsistent metric)."""


class PresetError(QcflowError):
    """Target-curvature preset does not match the mesh topology."""
