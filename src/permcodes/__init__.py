"""Permutation codes and their equidistribution theory, verified exhaustively.

Four bijective codes on the symmetric group (Lehmer, inverse, major,
saillance), the rooted-tree derivation calculus that organises them, flagged
ribbon generating functions, and machine checks that the sorted codes of the
three non-Lehmer families are equidistributed over inverse descent classes.
"""

from .codes import (
    FAMILIES,
    INVCODE,
    LEHMER,
    MAJCODE,
    SCODE,
    AcceptabilityResult,
    CodeFamily,
    check_code,
    format_code,
    generic_decode,
    generic_encode,
    inv_code,
    inv_decode,
    is_acceptable,
    is_subdiagonal,
    lehmer_code,
    lehmer_decode,
    maj_code,
    maj_decode,
    parse_code,
    s_code,
    s_decode,
    sorted_code,
    tau_i,
    tau_m,
    tau_s,
)
from .lequiv import (
    LClass,
    avoids_pattern,
    catalan,
    class_max,
    class_min,
    l_adjacent,
    l_class,
    l_classes,
    l_moves,
)
from .permutations import (
    DEFAULT_ENUMERATION_LIMIT,
    EnumerationLimitError,
    composition_from_descent_set,
    compositions_of,
    conjugate_composition,
    descent_class,
    descent_composition,
    descent_set,
    des,
    evaluation,
    format_composition,
    format_permutation,
    identity,
    identity_block_shuffle,
    insert_one_at,
    inv,
    inverse,
    is_coarser,
    is_permutation,
    iter_permutations,
    maj,
    parse_composition,
    parse_permutation,
    shifted_shuffle,
    shuffle,
    standardize,
)
from .polynomials import IndexPolynomial, format_q_polynomial
from .ribbons import (
    format_bracket,
    h_flagged,
    h_product,
    ribbon_determinant,
    ribbon_flagged,
    ribbon_table_lines,
)
from .trees import (
    c_polynomial,
    canonical_tree,
    code_arity_monomial,
    connes_moscovici,
    derive,
    increasing_labelings,
    perm_to_tree,
    s_code_of_tree,
    taylor_tree_series,
    tree_from_text,
    tree_to_perm,
    tree_to_text,
    trees_of_size,
    x_polynomial,
)
from .verify import (
    CHECK_NAMES,
    CheckItem,
    ClassDistribution,
    VerificationReport,
    check_euler_mahonian,
    class_distribution,
    run_checks,
)

__version__ = '0.1.0'
