"""Certified injective orbit maps on discretized metric spaces.

The package builds, for a finite metric sample carrying a group action or an
arbitrary family of injective maps, an observable into the unit cube whose
orbit map separates every pair of points, together with a certificate that
states the claim and re-verifies exhaustively: it carries the final
observable and each stage's points and maps, from which a verifier
recomputes the exact injectivity margins and the displacement bound.
"""

__version__ = "0.8.0"

from .covers import (
    BACKEND_BRICKS,
    BACKEND_CELLS,
    ColoredCover,
    Coords,
    build_cover,
    diameter_clusters,
    pull_cover,
    verify_cover,
)
from .errors import (
    BudgetError,
    ConstructionError,
    CoverInfeasibleError,
    GroupCapError,
    HypothesisError,
    InputError,
    InternalCheckError,
    MengerError,
    VerificationError,
)
from .gate import (
    HypothesisCheck,
    HypothesisReport,
    check_hypotheses_action,
    check_hypotheses_family,
)
from .partitions import (
    CoherentBlock,
    DoubledFamily,
    Partition,
    classify,
    coherent_decomposition,
    compatible_subset,
    doubled_induced_partition,
    induced_partition,
    intersective_transport,
    refines,
)
from .perturb import (
    Observable,
    ValueAssignment,
    assign_values,
    modulus,
    perturb,
    sample_observable,
    sup_distance,
)
from .pipeline import (
    BlockLog,
    EmbeddingCertificate,
    StageRecord,
    embed_equivariant,
    embed_family,
    margin,
    separate_on_block,
)
from .space import (
    FiniteSpace,
    GroupAction,
    MapFamily,
    orbit,
    periodic_set,
    restricted_space,
    validate_space,
)
from .witness import (
    BipartiteInstance,
    SeparationProof,
    Witness,
    check_separation,
    find_witness,
    run_witness_oracle,
)
