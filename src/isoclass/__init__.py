"""Decide for which extension degrees k two ordinary elliptic curves over
the same prime field have isomorphic groups of F_(q^k)-rational points.

The answer is a conjunction of per-prime rules: `iso_pattern` returns it as
"k even" (when a 2-adic rule applies) and d ∤ k for each d in a short list,
with its period `modulus` derived from it and `pattern_eval` reading it at k;
`gcd_criterion` / `valuation_criterion` give slow per-k ground truth, and
the enumeration oracle checks everything against actual group structures
for small fields.
"""

from .curve import (
    CONDUCTOR_BOUND,
    COUNT_BOUND,
    ENUM_BOUND,
    CapacityError,
    Curve,
    GroupStructure,
    SingularCurveError,
)
from .endoring import (
    conductor,
    conductor_bruteforce,
    division_polys,
    scalar_action_test,
)
from .field import PrimeField, is_prime
from .isomorphy import (
    ComparisonInput,
    IsoPattern,
    PrimeAnalysis,
    gcd_criterion,
    iso_pattern,
    nasty_reduce,
    pattern_eval,
    predicted_group_structure,
    prime_set,
    valuation_criterion,
)
from .quadorder import (
    FrobeniusData,
    SupersingularError,
    factorize,
    frobenius_from_trace,
    mult_order,
    squarefree_decompose,
    vp,
)

__version__ = "0.1.0"

__all__ = [
    "CONDUCTOR_BOUND",
    "COUNT_BOUND",
    "ENUM_BOUND",
    "CapacityError",
    "ComparisonInput",
    "Curve",
    "FrobeniusData",
    "GroupStructure",
    "IsoPattern",
    "PrimeAnalysis",
    "PrimeField",
    "SingularCurveError",
    "SupersingularError",
    "conductor",
    "conductor_bruteforce",
    "division_polys",
    "factorize",
    "frobenius_from_trace",
    "gcd_criterion",
    "is_prime",
    "iso_pattern",
    "mult_order",
    "nasty_reduce",
    "pattern_eval",
    "predicted_group_structure",
    "prime_set",
    "scalar_action_test",
    "squarefree_decompose",
    "valuation_criterion",
    "vp",
    "__version__",
]
