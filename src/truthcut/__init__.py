"""Proof kernel for sequent calculi of fully disquotational truth with
restricted initial sequents, plus certificate-producing structural
transformations, bounded cut-free proof search, and finite-stage fixed-point
semantics."""

__version__ = "0.1.0"

from .syntax import (  # noqa: F401
    And,
    Bot,
    Eq,
    Forall,
    Formula,
    Not,
    Num,
    Plus,
    Suc,
    SynApp,
    Term,
    Times,
    Top,
    Tr,
    Var,
    Zero,
    numeral,
    substitute,
)
from .coding import (  # noqa: F401
    decode,
    decode_sentence,
    diagonalize,
    encode,
    liar,
    quote,
    truth_teller,
)
from .deriv import (  # noqa: F401
    Derivation,
    Measures,
    Occurrence,
    Sequent,
    compute_measures,
)
from .kernel import (  # noqa: F401
    SYSTEMS,
    ValidationReport,
    Violation,
    check_derivation,
)
from .transform import (  # noqa: F401
    Certificate,
    CertificateError,
    TransformError,
    TransformResult,
    contract,
    eliminate_cuts,
    invert,
    reduce_cut,
    substitute_proof,
    weaken,
)
from .search import (  # noqa: F401
    SearchBudget,
    SearchResult,
    search_cut_free,
)
from .semantics import (  # noqa: F401
    FixedPoint,
    SentenceUniverse,
    build_universe,
    check_completeness,
    check_consistency,
    check_soundness,
    check_transparency,
    least_fixed_point,
)
from .script import (  # noqa: F401
    ScriptError,
    parse_script,
    print_script,
)
from .sexpr import (  # noqa: F401
    ParseError,
    format_formula,
    format_sequent,
    parse_formula,
    parse_sequent,
    parse_term,
)
