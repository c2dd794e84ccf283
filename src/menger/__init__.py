"""Certified injective orbit maps on discretized metric spaces.

The package builds, for a finite metric sample carrying a group action or an
arbitrary family of injective maps, an observable into the unit cube whose
orbit map separates every pair of points, together with a certificate that
states the claim and re-verifies exhaustively: it carries the final
observable and each stage's points and maps, from which a verifier
recomputes the exact injectivity margins and the displacement bound.

The names below are imported from their modules on first use (PEP 562), so
``import menger.io`` loads the verifier's modules and none of the
construction's (``pipeline``, ``witness``, ``fixtures``).
"""

import importlib
from typing import Any

__version__ = "0.8.0"

# ``perturb`` names a submodule and one of its functions.  Importing the
# submodule binds the module here, so the function is bound now, after it.
from .perturb import perturb  # noqa: E402

_EXPORTS = {
    "covers": (
        "BACKEND_BRICKS", "BACKEND_CELLS", "ColoredCover", "Coords", "build_cover",
        "diameter_clusters", "pull_cover", "verify_cover",
    ),
    "errors": (
        "BudgetError", "ConstructionError", "CoverInfeasibleError", "GroupCapError",
        "HypothesisError", "InputError", "InternalCheckError", "MengerError",
        "VerificationError",
    ),
    "gate": (
        "HypothesisCheck", "HypothesisReport", "check_hypotheses_action",
        "check_hypotheses_family",
    ),
    "partitions": (
        "CoherentBlock", "DoubledFamily", "Partition", "classify", "coherent_decomposition",
        "compatible_subset", "doubled_induced_partition", "induced_partition",
        "intersective_transport", "refines",
    ),
    "perturb": (
        "Observable", "ValueAssignment", "assign_values", "modulus", "sample_observable",
        "sup_distance",
    ),
    "pipeline": (
        "BlockLog", "EmbeddingCertificate", "StageRecord", "embed_equivariant", "embed_family",
        "margin", "separate_on_block",
    ),
    "space": (
        "FiniteSpace", "GroupAction", "MapFamily", "orbit", "periodic_set", "restricted_space",
        "validate_space",
    ),
    "witness": (
        "BipartiteInstance", "SeparationProof", "Witness", "check_separation", "find_witness",
        "run_witness_oracle",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", "perturb", *sorted(_HOME)]


def __getattr__(name: str) -> Any:
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
