"""Permutation codes and their equidistribution theory, verified exhaustively.

Four bijective codes on the symmetric group (Lehmer, inverse, major,
saillance), the rooted-tree derivation calculus that organises them, flagged
ribbon generating functions, and machine checks that the sorted codes of the
three non-Lehmer families are equidistributed over inverse descent classes.

The package exports what the README quickstart and the demos use; everything
else is imported from its submodule.
"""

from .codes import (
    FAMILIES,
    acceptability_witness,
    format_code,
    inv_code,
    lehmer_code,
    lehmer_decode,
    s_code,
    sorted_code,
    tau_s,
)
from .lequiv import (
    avoids_pattern,
    catalan,
    class_max,
    class_min,
    l_adjacent,
    l_class,
    l_classes,
)
from .permutations import (
    compositions_of,
    descent_class,
    format_permutation,
    insert_one_at,
    inv,
    inverse,
    iter_permutations,
    maj,
    parse_permutation,
    standardize,
)
from .ribbons import (
    format_bracket,
    h_product,
    ribbon_determinant,
    ribbon_flagged,
    ribbon_table_lines,
)
from .trees import (
    c_polynomial,
    code_arity_monomial,
    connes_moscovici,
    taylor_tree_series,
    tree_to_perm,
    tree_to_text,
    x_polynomial,
)
from .verify import class_distribution, run_checks

__version__ = '0.1.0'
