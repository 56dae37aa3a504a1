"""Measure-existence machinery on finite Boolean set algebras.

Exact Kelley intersection numbers by LP duality, measure synthesis from
collections and fragmentations, gradedness and antichain analysis, expander
families with Hall choice functions, and executable certificates for the
1/(30 K^2) level bounds.  All arithmetic that feeds a certified value is
exact rational arithmetic.
"""

from .algebra import (
    ENUMERATION_CAP,
    AtomSpace,
    Collection,
    Element,
    canonical_key,
    enumerate_nonzero,
    minimal_elements,
)
from .certify import (
    FragmentationCertificate,
    KRParameters,
    LevelCertificate,
    ProofTrace,
    SignaturePartition,
    TraceVerdict,
    build_signature_partition,
    certify_fragmentation,
    certify_level,
    intersection_bound,
    minimum_sequence_length,
    replay_proof,
    select_parameters,
)
from .errors import (
    BoolMeasureError,
    CertificationError,
    ConstructionError,
    ContractError,
    HallViolationError,
    InputError,
    InternalError,
    SizeError,
)
from .expanders import (
    ChoiceFunction,
    ExpanderFamily,
    ExpansionReport,
    build_expander,
    check_preconditions,
    choice_function,
    verify_expansion,
)
from .fragmentation import (
    AntichainReport,
    Fragmentation,
    FragmentationReport,
    GradedReport,
    Submeasure,
    check_fragmentation,
    check_graded,
    check_submeasure,
    extract_graded_subfragmentation,
    from_measure,
    from_submeasure,
    max_antichain,
    max_disjoint_family,
    require_valid,
)
from .intersection import (
    GameSolution,
    SequenceScore,
    intersection_number,
    intersection_number_bruteforce,
    kappa_of_sequence,
)
from .measures import (
    Measure,
    check_measure_axioms,
    combine_measures,
    measure_eval,
    measure_from_collection,
)
from .simplex import LPSolution, exact_lp_solve

__version__ = "0.1.0"
