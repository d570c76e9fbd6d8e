"""Conformal and quasi-conformal triangle-mesh parameterization by discrete
Yamabe flow, with Beltrami-coefficient prescription via the auxiliary-metric
construction."""

__version__ = "0.1.0"

from .beltrami import (
    BeltramiEstimate,
    BeltramiField,
    Parameterization,
    auxiliary_metric,
    compose_beltrami,
    estimate_beltrami,
    field_from_json,
    field_to_json,
    map_distance,
)
from .embed import (
    TorusPeriods,
    layout_euclidean,
    layout_hyperbolic,
    torus_periods,
)
from .errors import (
    BeltramiError,
    FlowError,
    LayoutError,
    MetricError,
    ParseError,
    PresetError,
    QcflowError,
    SolverError,
    SurgeryError,
    TopologyError,
)
from .flow import (
    FlowOptions,
    FlowReport,
    FlowResult,
    NewtonFactor,
    angle_derivatives,
    assemble_hessian,
    edge_swap,
    newton_step,
    run_flow,
)
from .geom import mobius_from_origin, poincare_circle_to_euclidean
from .mesh import (
    CutGraph,
    HalfedgeMesh,
    build_mesh,
    cut_graph,
    cut_to_disk,
    euler_characteristic,
    load_obj,
    load_objs,
    save_obj,
    slice_along_edges,
)
from .metric import (
    DiscreteMetric,
    Geometry,
    check_triangle_inequality,
    corner_angles,
    deform_metric,
    face_areas,
    gauss_bonnet_residual,
    induced_metric,
    vertex_curvature,
)
from .pipeline import (
    FlattenResult,
    PresetKind,
    TargetPreset,
    cmd_check,
    cmd_compare,
    cmd_compose,
    cmd_estimate_mu,
    cmd_flatten,
    cmd_qcmap,
    target_curvature,
)
