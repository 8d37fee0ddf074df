"""Groups acting on the p-adic rooted tree, defined by a numerical datum.

The package builds multi-edge generalized spinal groups from a numerical
datum (a prime p and up to p families of defining vectors over F_p),
computes their finite congruence quotients exactly, classifies branch
behaviour, torsion, and the congruence subgroup property, and checks the
structural statements behind those classifications at finite tree depth.
"""

from .chains import (
    ChainError,
    ChainStore,
    DegreeGuardError,
    FiniteQuotient,
    SubgroupChain,
    quotient,
)
from .checks import (
    CHECK_NAMES,
    SUITE_DATA,
    CheckError,
    CheckReport,
    run_check,
    run_suite,
    suite_plan,
)
from .datum import (
    Classification,
    DatumError,
    NumericalDatum,
    classify,
    exceptional_pair,
    is_torsion,
)
from .portraits import Portrait, TreeError, commutator
from .words import (
    BranchElement,
    ExceedsCap,
    GroupWord,
    GuardExceeded,
    WordError,
    abelianization,
    dependency,
    evaluate,
    evaluate_branch,
    is_trivial,
    order,
    parse_word,
    word_to_text,
)

__all__ = [
    "BranchElement",
    "CHECK_NAMES",
    "ChainError",
    "ChainStore",
    "CheckError",
    "CheckReport",
    "Classification",
    "DatumError",
    "DegreeGuardError",
    "ExceedsCap",
    "FiniteQuotient",
    "GroupWord",
    "GuardExceeded",
    "NumericalDatum",
    "Portrait",
    "SUITE_DATA",
    "SubgroupChain",
    "TreeError",
    "WordError",
    "abelianization",
    "classify",
    "commutator",
    "dependency",
    "evaluate",
    "evaluate_branch",
    "exceptional_pair",
    "is_torsion",
    "order",
    "parse_word",
    "quotient",
    "run_check",
    "run_suite",
    "suite_plan",
    "word_to_text",
]

__version__ = "0.1.0"
