"""Workbench for two lexicographic ordered abelian groups and their series fields.

The package provides exact arithmetic and order for the two block
constructions, divisibility and congruence-lead bookkeeping, the
congruence-avoidance predicate and its tail sets, two order embeddings
with image tests and repair constructions, a small first-order formula
language with sound three-valued bounded evaluation, finite-support
series with t-adic valuation, and a CLI running the verification
suites.
"""

from .elements import (
    ComponentError,
    Construction,
    ConstructionMismatch,
    GAMMA,
    GroupElement,
    LAMBDA,
    LeadDescriptor,
    ParseError,
    cmp,
    element,
    format_element,
    lambda_c_unit,
    parse_element,
    unit,
    zero,
)
from .embeddings import (
    Embedding,
    apply,
    descriptor_window,
    in_image,
    perturb_into_image,
    preimage,
)
from .evaluate import Truth, Verdict, evaluate, neg_rphi_normalize, rphi_holds
from .formulas import classify_prefix, parse_formula, parse_term, print_formula
from .fragments import FragmentConfig, fragment, iter_fragment
from .hahn import (
    HahnSeries,
    Membership,
    PrimeField,
    QQ,
    RationalField,
    lift_embedding,
    membership,
    monomial,
    one,
    series,
    subring_escape_witness,
    truncated_inverse,
    zero_series,
)
from .positions import (
    CRITICAL_CIRCLE,
    Position,
    g1_circle,
    g1_square,
    g2_circle,
    g2_square,
    pos_lt,
)
from .predicates import (
    TailSet,
    cong_free_below,
    cong_witness_below,
    g1_part_by_formula,
    in_g1_part,
    in_tail_set,
    inner_anchor_below,
    tail_set,
)
from .ringlang import eval_ring, eval_valuation, translate_to_ring
from .suites import (
    DEMOS,
    SUITES,
    SuiteOptions,
    SuiteReport,
    closure_audit,
    gen_corpus,
    run_suite,
)

__version__ = "0.1.0"
