"""Exact-arithmetic PBW filtrations on Weyl modules.

Root systems with pinned Chevalley structure constants, highest-weight
modules over Q, admissible Z-lattices and their mod-p reductions,
essential-monomial bases for the PBW filtration, the induced filtration
on tensor products, and the Frobenius-splitting verification pipeline
for type G2. All arithmetic is exact: big integers and ints mod p, with
a rational only where a result is one, a solve over Q; there is no
floating point anywhere in the package.
"""

__version__ = "0.1.0"

SCHEMA_VERSION = 1

# Tag identifying the structure-constant sign convention baked into every
# serialized artifact; bump if the extraspecial-pair choice ever changes.
SIGN_CONVENTION_TAG = "extraspecial-min-heightlex-v1"

from .rootsys import (  # noqa: E402,F401
    CartanData,
    CartanMatrixError,
    InvariantError,
    ResourceCapError,
    RootSystem,
    build_root_system,
)
from .charzero import (  # noqa: E402,F401
    DIM_CAP_DEFAULT,
    AdmissibleLattice,
    HWModuleQ,
)
from .weylmod import (  # noqa: E402,F401
    DualModuleP,
    WeylModuleP,
    tensor_act,
    tensor_of,
)
from .pbw import (  # noqa: E402,F401
    EssentialSet,
    FiltrationTable,
    InducedSections,
    Polynomial,
    essential_set,
    g2_essential_member,
    g2_essential_table,
    j_map,
    order_key,
    pbw_filtration,
    section_product,
    sn_divided_action,
)
from .tensorfilt import (  # noqa: E402,F401
    InducedFiltration,
    InducedFiltrationTable,
    comparison_map_check,
    delta_stability_check,
    dual_filtration_dims,
    norm_form_identity_check,
    product_order_equality,
    vv_level_contains,
)
from .criterion import (  # noqa: E402,F401
    CriterionReport,
    G2Report,
    check_condition2,
    check_v0,
    g2_verify,
    gamma_weight,
    implication_consistent,
)
from .cache import (  # noqa: E402,F401
    CACHE_DIR_ENV,
    PayloadStore,
    content_key,
    load_or_build_lattice,
    stable_dumps,
    stable_hash,
)
