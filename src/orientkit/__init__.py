"""Exact-arithmetic toolkit for half-edge graphs and their orientation
homomorphisms: automorphism groups, the Kontsevich and Shoikhet signs,
orientability verdicts, edge-orbit contraction, classified edge-transitive
families, and exhaustive small-graph agreement sweeps."""

from .automorphisms import (
    Automorphism,
    InducedActions,
    as_automorphism,
    enumerate_automorphisms,
    induced_actions,
    is_automorphism,
)
from .corpus import (
    CorpusSpec,
    SweepReport,
    enumerate_graphs,
    render_report,
    sweep_theorem,
    write_report,
)
from .families import (
    Family,
    FamilyInstance,
    FamilyParams,
    build_family,
    eq1_check,
    family_instances,
    proof_case_values,
    verify_family,
)
from .graphs import (
    Graph,
    GraphError,
    OrbitContraction,
    canonical_graph,
    format_graph,
    orbit_contraction,
    parse_graph,
    validate,
)
from .limits import SizeLimitExceeded
from .orientation import (
    OrientationReport,
    ThetaHom,
    Verdict,
    cycle_basis,
    default_arrows,
    det_sign,
    epsilon_map,
    induced_cycle_matrix,
    or_orbits_bruteforce,
    orientability,
    theta_k,
    theta_parity,
    theta_s,
)

__version__ = "0.1.0"
