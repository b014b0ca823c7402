"""gemtk: analysis and search for graph-encoded manifolds.

A gem is a (d+1)-regular properly edge-colored loopless multigraph whose
induced simplicial cell complex triangulates a closed d-manifold.  This
package validates such graphs, enumerates the semi-equivelar face-size
sequences admissible on a surface of given Euler characteristic, traces
regular embeddings, computes integer homology of the induced complex, checks
the surface/3-manifold/residue criteria, and searches exhaustively for small
gems realizing a prescribed type.
"""

from .census import (
    canonical_cycle,
    enumerate_types,
    solve_vertex_count,
    type_name,
)
from .complexes import (
    HomologyProfile,
    ResidueSphereReport,
    ThreeManifoldReport,
    build_complex,
    check_3manifold,
    check_residues_sphere,
    check_surface,
    graph_homology,
    smith_normal_form,
)
from .embeddings import (
    CyclicOrder,
    EmbeddingReport,
    SurfaceDescriptor,
    all_embeddings,
    embedding_report,
    semi_equivelar_type,
    trace_faces,
)
from .gemio import GemParseError, parse_gem, write_gem
from .graphs import (
    ColoredGraph,
    GemValidationError,
    GraphDefect,
    canonical_code,
    connected_components,
    is_bipartite,
    is_connected,
    residue_components,
    residue_stats,
    residue_subgraph,
    validate,
)
from .search import (
    InfeasibleSpecError,
    SearchOutcome,
    SearchSpec,
    SearchStats,
    search_gems,
)

__all__ = [
    "ColoredGraph",
    "CyclicOrder",
    "EmbeddingReport",
    "GemParseError",
    "GemValidationError",
    "GraphDefect",
    "HomologyProfile",
    "InfeasibleSpecError",
    "ResidueSphereReport",
    "SearchOutcome",
    "SearchSpec",
    "SearchStats",
    "SurfaceDescriptor",
    "ThreeManifoldReport",
    "all_embeddings",
    "build_complex",
    "canonical_code",
    "canonical_cycle",
    "check_3manifold",
    "check_residues_sphere",
    "check_surface",
    "connected_components",
    "enumerate_types",
    "embedding_report",
    "graph_homology",
    "is_bipartite",
    "is_connected",
    "parse_gem",
    "residue_components",
    "residue_stats",
    "residue_subgraph",
    "search_gems",
    "semi_equivelar_type",
    "smith_normal_form",
    "solve_vertex_count",
    "trace_faces",
    "type_name",
    "validate",
    "write_gem",
]

__version__ = "0.1.0"
