"""Certified automorphism bounds for arithmetic surface groups.

Exact signature invariants, surface-kernel epimorphism verification and
search, mod-p homology covers, and machine-checkable genus certificates.
"""

__version__ = "0.1.0"

from .signatures import (
    Signature,
    MeasureClass,
    AbelianInvariants,
    SignatureTableEntry,
    NotAdmissible,
    NonIntegralGenus,
    TableCorrupt,
    measure,
    measure_class,
    kernel_genus,
    abelianization,
    enumerate_signatures,
    signature_table,
    parse_signature,
)
from .groups import (
    PermutationGroup,
    CyclicGroup,
    DihedralGroup,
    OrderCapExceeded,
    construct,
)
from .ske import (
    SkeCertificate,
    OrderNotPreserved,
    LongRelationFails,
    NotSurjective,
    SearchSpaceTooLarge,
    verify_ske,
    verify_certificate,
    search_ske,
    dihedral_witness_ske,
)
from .covers import (
    KernelPresentation,
    HomologyAction,
    CoverCertificate,
    NotSurfaceKernel,
    NotInvariant,
    GENUS2_COVER_CASES,
    kernel_presentation,
    homology_action,
    invariant_hyperplanes,
    build_cover,
    verify_cover_certificate,
    quotient_ske_from_cover,
    check_cover_cases,
)
from .bounds import (
    BoundConstants,
    PrimeConditions,
    DischargeReport,
    AttainedGenus,
    GenusWitness,
    GenusCertificate,
    WitnessSearchFailed,
    bound_constants,
    prime_conditions,
    discharge_prime,
    attained_genera,
    certify_genus,
    verify_genus_certificate,
    small_genus_catalog,
)
