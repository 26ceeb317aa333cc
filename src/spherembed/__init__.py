"""Spherical and ellipsoidal graph embeddings with embed-and-partition clustering.

The library computes low-dimensional node embeddings by maximizing a
quadratic form of a descriptor matrix (modularity or a normalized-Laplacian
descriptor) over the product of unit spheres, using a projected power method
with optional momentum. The optimizer output is post-processed by a thin SVD
into spherical/ellipsoidal coordinates, and communities are recovered by
vector partitioning in the embedding space.
"""

from .graphs import (
    Graph,
    EdgeListError,
    load_edge_list,
    load_ground_truth,
    largest_connected_component,
    write_edge_list,
)
from .operators import (
    ShiftedOperator,
    make_descriptor,
)
from .solver import (
    SolverConfig,
    SolveResult,
    project_rows,
    objective,
    first_order_criterion,
    solve,
)
from .embedding import (
    EmbeddingResult,
    svd_embedding,
    effective_dimension,
    truncate_embedding,
)
from .partition import (
    Partition,
    init_centroids,
    vp_step,
    vp_run,
    best_of_restarts,
)
from .metrics import modularity_of_partition, nmi, summarize
from .generators import PlantedPartitionSpec, generate_planted_partition
from .pipeline import (
    PipelineConfig,
    seed_tree,
    run_embedding,
    run_partition,
    run_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "EdgeListError",
    "load_edge_list",
    "load_ground_truth",
    "largest_connected_component",
    "write_edge_list",
    "ShiftedOperator",
    "make_descriptor",
    "SolverConfig",
    "SolveResult",
    "project_rows",
    "objective",
    "first_order_criterion",
    "solve",
    "EmbeddingResult",
    "svd_embedding",
    "effective_dimension",
    "truncate_embedding",
    "Partition",
    "init_centroids",
    "vp_step",
    "vp_run",
    "best_of_restarts",
    "modularity_of_partition",
    "nmi",
    "summarize",
    "PlantedPartitionSpec",
    "generate_planted_partition",
    "PipelineConfig",
    "seed_tree",
    "run_embedding",
    "run_partition",
    "run_pipeline",
]
