"""Fermionic Fock spaces over finite-dimensional Krein spaces.

Layers, bottom up: ``krein`` (indefinite inner products and operator
predicates), ``fock`` (graded states, creation/annihilation, CAR),
``lie`` (the dynamical Lie algebra and its Fock representation),
``coherent`` (coherent states and the closed-form overlap),
``cycleindex`` (exact pairing-graph combinatorics), ``boundary``
(orientation reversal, gluing, regions and amplitudes), ``verify`` and
``cli`` (the randomized verification harness).

Every closed-form determinant or cycle-index formula ships next to a
definitional brute-force oracle, and the test suite holds the two routes
together at fixed tolerances.
"""

from .boundary import (
    Region,
    amplitude_bruteforce,
    amplitude_closed,
    amplitude_degree_lemma,
    amplitude_degree_terms,
    axiom_suite,
    disjoint_union,
    iota,
    random_region,
    reversed_space,
    slice_inner,
    slice_region,
    tau,
    tau_coherent_data,
)
from .coherent import (
    CoherentData,
    coherent_explicit,
    coherent_series,
    overlap_closed,
    wave_function,
)
from .cycleindex import (
    CycleIndexPoly,
    evaluate_poly,
    p_n_enumerate,
    p_n_recursive,
    p_sigma,
    q_n_closed,
    q_n_recursive,
    series_identity_check,
)
from .fock import (
    FockState,
    annihilate,
    create,
    evaluate,
    fock_inner,
    fock_inner_literal,
    pm_decompose,
    vacuum,
)
from .krein import (
    CONJUGATE_LINEAR,
    LINEAR,
    HypothesisViolationError,
    KOperator,
    KreinSpace,
    adjoint,
    inner,
    is_conj_antisymmetric,
    operator_norm,
    scale_i,
    structural_predicates,
    trace,
)
from .lie import LieElement, bracket, gip, norm_identities, rep

__version__ = "0.1.0"
