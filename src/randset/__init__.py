"""Set-valued averaging laboratory.

Minkowski algebra on closed sets (cells of "base plus cone" with finite
unions), support functions, exact and windowed Hausdorff distances, recession
cones, phi-mixing scalar drivers with exact dependence coefficients, five
set-valued sequence families, and the experiment harnesses that track strong
laws of large numbers in the Hausdorff and Kuratowski-Mosco senses.
"""

from .geometry import (
    Ball,
    CellBudgetExceeded,
    Cone,
    ConvexCell,
    EmptyAfterWindow,
    MembershipVerdict,
    NegativeScale,
    Polytope,
    SetUnion,
    UnboundedOperand,
    UnsupportedCellCombination,
    ball_cell,
    convex_hull,
    format_set_union,
    hausdorff,
    hausdorff_via_support,
    hausdorff_windowed,
    hull_membership_via_support,
    interval_cell,
    minkowski_sum,
    parse_set_union,
    point_cell,
    point_union,
    poly_cell,
    ray_cell,
    recession_cone,
    scale,
    spread_directions,
    support,
    union_of,
)
from .mixing import (
    Law,
    NotStationary,
    PhiProfile,
    ScalarDriver,
    TooManyEvents,
    alternating_driver,
    draw_at,
    draw_sequence,
    fair_sign_driver,
    iid_driver,
    m_dependent_driver,
    markov_driver,
    phi_brute_force,
    phi_exact_markov,
    scalar_slln_trajectory,
)
from .processes import (
    AumannExpectation,
    SetProcessSpec,
    SupportMomentSeries,
    TargetNotInA,
    UnknownMoments,
    ball_process,
    expectation,
    needle_halo_process,
    ray_process,
    sample_set,
    segment_process,
    selection,
    selection_moment_series,
    support_moment_series,
    support_process,
    two_point_process,
)
from .experiments import (
    HypothesesReport,
    KMReport,
    ProbeOutsideD,
    SectorCertificate,
    Trajectory,
    UnboundedFamily,
    cone_tracking,
    exact_cell_expansion,
    halo_certificate,
    halo_certificates,
    harmonic_halo_radius,
    run_hausdorff_slln,
    run_km_diagnostics,
    slln_hypotheses_report,
    trajectory_csv,
)

__version__ = "0.1.0"
