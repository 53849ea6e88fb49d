"""Analysis of first-order monotone boolean functions over the flat
three-valued domain: traces, invariance under logical relations,
presequentiality levels, class membership, and machine-checkable
definability / inexpressibility certificates."""

from .config import DEFAULT_CONFIG, SearchConfig
from .definability import (
    BMMapping,
    Certificate,
    CompareVerdict,
    bm_search,
    check_bm,
    cofinal_witness,
    compare,
    mapping_certificate,
    separation_certificate,
)
from .errors import (
    AnalysisError,
    ArityMismatchError,
    BoundExceededError,
    BudgetExceededError,
    ComparableRowsError,
    FormatError,
    InapplicableError,
    InconsistentOutputsError,
    NonMonotoneTableError,
    SoundnessError,
    TermArityError,
    TraceError,
)
from .functions import (
    MonotoneFn,
    TraceEntry,
    entry,
    fn_sum,
    format_trace,
    is_m_sequential,
    neg,
    parse_trace,
    table_of,
    trace_from_table,
    validate_trace,
)
from .lattice import (
    BOT,
    FF,
    TT,
    Tri,
    TriTuple,
    is_coherent,
    leq,
)
from .plevels import (
    INF,
    ClassReport,
    PLevel,
    bcc,
    cc,
    classify,
    enumerate_monotone,
    p_level,
    p_level_of_sum,
)
from .relations import (
    InvarianceWitness,
    PreseqRel,
    Relation,
    Separation,
    SeparationOutcome,
    SeqRel,
    canonical_equal,
    canonical_strict,
    canonicalize,
    chain_relation,
    find_separating_relation,
    format_relation,
    invariance_counterexample,
    is_invariant,
    level_separator,
    parse_relation,
    parse_relation_file,
    predict_invariant,
)
from .terms import (
    App,
    Const,
    Term,
    Var,
    bg_rotation_terms,
    eval_term,
    format_term,
    inline_oracle,
    mono_to_det_term,
    parse_term,
    por_step_term,
)
from . import zoo

__version__ = "0.1.0"
