"""digitop: digital topology on integer lattices.

Certifies digital manifolds under adjacency pairs, decides good pairs,
builds the derived simplicial complexes and validates the pseudomanifold
and separation conclusions at desk scale.
"""

__version__ = "0.1.0"

from .adjacency import (
    AdjacencyPair,
    AdjacencySpec,
    ComponentLabeling,
    Region,
    axis_adjacency,
    complement_components,
    components,
    custom_adjacency,
    elementary_equivalent,
    full_adjacency,
    is_path,
    n_simply_connected_bounded,
    neighbors,
)
from .jordan import (
    JordanReport,
    box_surface,
    jordan_check,
    rect_boundary,
    sphere_shell,
)
from .lattice import (
    Cube,
    barycenter,
    completing_translations,
    cube_vertices,
    subcubes,
)
from .manifold import (
    GlobalSides,
    GoodPairReport,
    ManifoldReport,
    NotCertifiedError,
    check_manifold,
    double_points,
    global_sides,
    is_good_pair,
    is_regular_rotation,
    is_separating_pair,
    is_simple_point,
    local_components,
)
from .pseudomanifold import PseudomanifoldReport, is_pseudomanifold
from .separation import (
    beta_neighbor_lower_bound,
    component_count_bounds_hold,
    has_separation_property,
    not_separated_in_cube,
)
from .simplicial import (
    SimplicialComplex,
    build_complex,
    build_complexes,
    build_reduced_complex,
    complex_to_json,
    complex_to_off,
    euler_characteristic,
    euler_characteristics,
    lattice_correspondence,
    realization_chambers,
    reduce_complex,
    skeleton_components,
    barycenter_test,
    verify_complex_axioms,
)
from .verdict import Verdict
