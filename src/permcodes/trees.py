"""Rooted-tree calculus for the formal expansion of dx/dt = V(x(t)).

Topological (unordered) rooted trees are nested tuples of children in
canonical form: the children of every node are sorted, so equal shapes have
equal encodings.  The single node is ``()``, the cherry is ``((), ())``.

Labeled trees are ``(label, children)`` pairs with children sorted by label.
Increasing labelings (root 1, every child label exceeding its parent's) are
counted by the Connes-Moscovici coefficients and biject with permutations.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import factorial

from .codes import Code
from .permutations import Perm, evaluation
from .polynomials import IndexPolynomial, Monomial

__all__ = [
    'PlaneTree',
    'LabeledTree',
    'TreeSeries',
    'SINGLE_NODE',
    'canonical_tree',
    'tree_to_text',
    'derive',
    'taylor_tree_series',
    'connes_moscovici',
    'increasing_labelings',
    'tree_to_perm',
    'x_polynomial',
    'code_arity_monomial',
    'c_polynomial',
    'format_v_polynomial',
]

PlaneTree = tuple  # recursive: tuple of child PlaneTrees, canonically sorted
LabeledTree = tuple  # (label, tuple of child LabeledTrees sorted by label)
TreeSeries = dict[PlaneTree, int]
SizedTree = tuple  # recursive: (node count, tuple of child SizedTrees)

SINGLE_NODE: PlaneTree = ()


def canonical_tree(t: PlaneTree) -> PlaneTree:
    """Recursively sort children so equal shapes compare equal.

    >>> canonical_tree(((((),),), ()))
    ((), (((),),))
    """
    return tuple(sorted(canonical_tree(child) for child in t))


def tree_to_text(t: PlaneTree) -> str:
    """Nested-parenthesis encoding; the cherry is ``(()())``.

    >>> tree_to_text(((), ()))
    '(()())'
    """
    return '(' + ''.join(tree_to_text(child) for child in t) + ')'


def _attachments(t: PlaneTree):
    """All trees obtained by adding one leaf to one node of ``t``, one result
    per node position (not yet canonicalized)."""
    yield t + ((),)
    for i, child in enumerate(t):
        for grown in _attachments(child):
            yield t[:i] + (grown,) + t[i + 1:]


def derive(series: TreeSeries) -> TreeSeries:
    """Formal derivative: attach one leaf to each node of each support tree,
    re-canonicalize, accumulate coefficients.

    >>> derive({SINGLE_NODE: 1})
    {((),): 1}
    """
    out: TreeSeries = {}
    for tree, coeff in series.items():
        for grown in _attachments(tree):
            key = canonical_tree(grown)
            out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in sorted(out.items()) if v}


@cache
def taylor_tree_series(n: int) -> TreeSeries:
    """The n-th term of the tree expansion: derive applied n−1 times to the
    single node.  Coefficients are the Connes-Moscovici coefficients; they
    sum to (n−1)!.
    """
    if n < 1:
        raise ValueError('tree series terms start at n=1')
    if n == 1:
        return {SINGLE_NODE: 1}
    return derive(taylor_tree_series(n - 1))


def connes_moscovici(t: PlaneTree) -> int:
    """Number of increasing labelings of the shape ``t``.

    Recursively: distribute the n−1 non-root labels among the child subtrees
    (multinomial), label each child increasingly, and divide by m! for every
    group of m identical child shapes, whose distinguished label sets would
    otherwise be counted in every order.  ``t`` is canonicalized first, so
    identical children sit side by side and ``groupby`` finds each group.

    >>> connes_moscovici(((), (((), ()),)))
    5
    """
    return _labeling_count(_sized(canonical_tree(t)))


def _sized(t: PlaneTree) -> SizedTree:
    """``t`` with every node's size beside it, counted in one pass."""
    children = tuple(map(_sized, t))
    return 1 + sum(size for size, _ in children), children


def _labeling_count(sized: SizedTree) -> int:
    n, children = sized
    count = factorial(n - 1)
    for child in children:
        count = count // factorial(child[0]) * _labeling_count(child)
    for _, group in itertools.groupby(children):
        count //= factorial(sum(1 for _ in group))
    return count


def increasing_labelings(t: PlaneTree) -> list[LabeledTree]:
    """All increasing labelings of ``t`` in canonical form (children sorted by
    label), sorted; the root always gets the smallest available label.

    >>> len(increasing_labelings(((), (((), ()),))))
    5
    """
    n, forest = _sized(canonical_tree(t))
    forests = _forest_labelings(forest, tuple(range(2, n + 1)))
    return sorted((1, children) for children in forests)


def _forest_labelings(forest: tuple[SizedTree, ...], labels: tuple[int, ...]):
    """Each increasing labeling of the sized trees of ``forest`` by the
    sorted ``labels`` once, as a tuple of labeled trees in increasing order
    of their roots.  The smallest label is the root of the first tree: each
    distinct shape in turn takes it with every subset of the other labels
    that fills the shape, and the rest of the forest takes the labels left
    over."""
    if not forest:
        yield ()
        return
    low, higher = labels[0], labels[1:]
    for i, first in enumerate(forest):
        if first in forest[:i]:
            continue
        rest = forest[:i] + forest[i + 1:]
        size, subtrees = first
        for chosen in itertools.combinations(higher, size - 1):
            remaining = tuple(x for x in higher if x not in chosen)
            for children, others in itertools.product(
                    _forest_labelings(subtrees, chosen), _forest_labelings(rest, remaining)):
                yield ((low, children), *others)


def tree_to_perm(lt: LabeledTree) -> Perm:
    """Map an increasing labeled tree of size n to a permutation of size n−1:
    replace each label l by n+1−l, order children increasingly, read the
    prefix (preorder) word, and drop the root.

    One stack reads the word: children are stored by increasing label, so
    pushed in that order they pop by increasing complement.

    >>> lt = increasing_labelings(((), (((), ()),)))[0]
    >>> tree_to_perm(lt)
    (4, 3, 1, 2, 5)
    """
    word = []
    stack = [lt]
    while stack:
        label, children = stack.pop()
        word.append(label)
        stack.extend(children)
    n = len(word)
    return tuple(n + 1 - label for label in word[1:])


def _arities(t: PlaneTree) -> Monomial:
    """The arity of every node of ``t``, in a preorder that visits children
    last to first; a shape's word determines it."""
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        out.append(len(node))
        stack.extend(node)
    return tuple(out)


@cache
def x_polynomial(n: int) -> IndexPolynomial:
    """The n-th term of the expansion as a polynomial in V_0, V_1, ...:
    Σ over shapes of size n of connes_moscovici(T) · ∏ V_{arity}.  Each
    shape gives one arity word, and the constructor adds the words that pack
    to the same monomial: x_4's 4*V2*V1*V0^2 is two shapes, weighted 3 and 1.
    Cached, as the series is, so C_(n−1) reads it without a second walk.

    >>> format_v_polynomial(x_polynomial(4))
    'V3*V0^3 + 4*V2*V1*V0^2 + V1^3*V0'
    """
    return IndexPolynomial({_arities(t): c for t, c in taylor_tree_series(n).items()})


def code_arity_monomial(c: Code) -> IndexPolynomial:
    """The V-monomial of a code of length m: with e = evaluation(c) over
    {0, ..., m}, the product V_{e_0}·V_{e_1}···V_{e_m} — evaluation entries
    become subscripts, one factor per letter of the alphabet.

    >>> code_arity_monomial((0, 0, 0)).terms
    {(0, 0, 0, 3): 1}
    >>> code_arity_monomial((2, 1, 0)).terms
    {(0, 1, 1, 1): 1}
    """
    return IndexPolynomial.monomial(evaluation(c))


def c_polynomial(n: int) -> IndexPolynomial:
    """C_n = x_{n+1} with V_0 set to 1: each monomial of x_{n+1} with its
    leading zeros, the V_0 factors of a sorted index tuple, dropped.  Every
    monomial of x_{n+1} has n+1 factors, so no two drop to the same one.

    >>> format_v_polynomial(c_polynomial(3))
    'V3 + 4*V2*V1 + V1^3'
    """
    return IndexPolynomial({mono[mono.count(0):]: c
                            for mono, c in x_polynomial(n + 1).terms.items()})


def format_v_polynomial(poly: IndexPolynomial) -> str:
    """Product-of-V rendering with factors and terms in descending subscript
    order, matching the printed x_n expansions.

    >>> format_v_polynomial(IndexPolynomial.monomial((0, 1, 1), 3))
    '3*V1^2*V0'
    """
    if not poly:
        return '0'
    terms = []
    for key, coeff in sorted(poly.terms.items(), key=lambda kv: kv[0][::-1], reverse=True):
        factors = []
        for sub, group in itertools.groupby(sorted(key, reverse=True)):
            power = sum(1 for _ in group)
            factors.append(f'V{sub}' if power == 1 else f'V{sub}^{power}')
        body = '*'.join(factors) if factors else '1'
        terms.append(body if coeff == 1 else f'{coeff}*{body}')
    return ' + '.join(terms)
