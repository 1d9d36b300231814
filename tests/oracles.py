"""Direct, unshared routes to what the library computes by faster means.

Each check here enumerates on its own, one unit at a time, the way the
verifier did before it shared one pass over the descent classes of each
size: theorem and fs walk D_I, coarse encodes the whole shuffle set of I,
ncinv words that set and builds E(I) block by block, em walks S_n once per
family, and scstep filters all (m+1)^k words by τ_S rank.  Every check
encodes through the ``FAMILIES`` entries, which tests mutate: ncinv reads
``FAMILIES['invcode']`` and scstep ``FAMILIES['scode']``, as the library
does.  Only the report types and the default selections come from
``verify``.  The tests compare the library's reports with these byte for
byte.

``TuplePolynomial`` is the polynomial arithmetic with monomials keyed by
sorted index tuples, which ``IndexPolynomial`` replaced by packed integer
keys; the flagged ribbons' two recurrences run on it here.

``inversion_pairs`` counts inv σ over every pair of positions, the double
loop that ``inv`` replaced by a count of pairwise comparisons, and
``descent_position_sum`` sums maj w over the descent positions one by one.

``s_code_of_tree`` is the paper's tree reading of the saillance code: the
father labels of an increasing tree, which the tests compare with ``s_code``
of the permutation ``tree_to_perm`` reads off the same tree.

``shuffle`` lists the interleavings of two words by inserting one into the
other; the tests compare it with the interleavings the merge tables read.
``shifted_shuffle`` and ``identity_block_shuffle`` build the shifted shuffle
id_{i_1} ⩂ ... ⩂ id_{i_r} from it, one block at a time, as the set of
inverses of the permutations whose descent set lies in Set(I), without the
merge tables: coarse and ncinv here encode that set, scstep reads its
prefixes off ``shifted_shuffle``, and the tests compare it with the subset
sums of the class pass and with the package's ``identity_block_shuffle``.

``generic_encode`` and ``generic_decode`` run a code through its τ map
alone, one insertion of the letter 1 at a time; the tests compare them with
each family's direct encoder and decoder.

``descent_set``, ``composition_descent_set`` and
``composition_from_descent_set`` hold a descent class's index as a set of
descent positions, the paper's Des σ and Set(I), and convert it to and from
a composition.  The library holds compositions alone: ``descent_composition``
and ``des`` scan a permutation's rising runs, and the zeta transforms read
each cut off the partial sums.  The tests compare those scans with the route
through these sets, and ``coarser_class`` filters S_n by them.
"""

import itertools
from collections import Counter
from typing import Iterable

from permcodes import verify
from permcodes.codes import FAMILIES, CodeFamily, is_subdiagonal, sorted_code, tau_s
from permcodes.permutations import (
    Composition,
    Perm,
    compositions_of,
    descent_class,
    des,
    format_composition,
    format_permutation,
    insert_one_at,
    inv,
    inverse,
    iter_permutations,
    maj,
    shifted_word,
)
from permcodes.polynomials import QPolynomial, format_q_polynomial
from permcodes.ribbons import (
    alphabet_flag,
    format_monomial,
    h_product,
    ribbon_determinant,
    ribbon_flagged,
)
from permcodes.verify import CheckItem, VerificationReport


class TuplePolynomial:
    """Integer polynomial as ``{sorted index tuple: coeff}``, zero
    coefficients dropped; a product of monomials is the sorted concatenation
    of their tuples."""

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    def __eq__(self, other):
        return self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return TuplePolynomial(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) - v
        return TuplePolynomial(out)

    def __mul__(self, other):
        out = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                key = tuple(sorted(ka + kb))
                out[key] = out.get(key, 0) + va * vb
        return TuplePolynomial(out)

    def total_mass(self):
        return sum(self.terms.values())

    def q_by_factor_count(self):
        out = {}
        for k, v in self.terms.items():
            out[len(k)] = out.get(len(k), 0) + v
        return {d: c for d, c in out.items() if c}


def tuple_h(k, m):
    """h_k over {x_0, ..., x_m}: every nondecreasing word, coefficient 1."""
    if k < 0 or m < 0:
        return TuplePolynomial()
    return TuplePolynomial({
        word: 1 for word in itertools.combinations_with_replacement(range(m + 1), k)})


def tuple_ribbon_flagged(comp):
    """r_I = h_{i_1}(X_{n−i_1})·r_{(i_2,...)} − r_{(i_1+i_2,i_3,...)}, with
    r_{(n)} = h_n(X_0)."""
    if not comp:
        return TuplePolynomial({(): 1})
    first, rest = comp[0], comp[1:]
    out = tuple_h(first, sum(rest))
    if rest:
        out = out * tuple_ribbon_flagged(rest) - tuple_ribbon_flagged(
            (first + rest[0],) + rest[1:])
    return out


def tuple_ribbon_determinant(comp):
    """r_I = Σ_k (−1)^{k−1} h_{i_1+...+i_k}(X_{n−i_1−...−i_k})·r_{(i_{k+1},...)},
    the first-row expansion of the flagged Hessenberg determinant."""
    if not comp:
        return TuplePolynomial({(): 1})
    out = TuplePolynomial()
    for k in range(1, len(comp) + 1):
        term = tuple_h(sum(comp[:k]), sum(comp[k:])) * tuple_ribbon_determinant(comp[k:])
        out = out + term if k % 2 else out - term
    return out


def _difference(show, label_a, a, label_b, b):
    """The least key whose counts in ``a`` and ``b`` differ, and the witness
    naming it and both counts; ``(None, '')`` when they agree."""
    keys = [key for key in a.keys() | b.keys() if a.get(key, 0) != b.get(key, 0)]
    if not keys:
        return None, ''
    key = min(keys)
    return key, (f'{show(key)}: {label_a} has {a.get(key, 0)}, '
                 f'{label_b} has {b.get(key, 0)}')


def _monomial(key):
    return f'monomial {format_monomial(key)}'


def _word(key):
    # digits while every letter is at most 9, else comma-separated
    return 'word ' + (',' if key and max(key) > 9 else '').join(map(str, key))


def inversion_pairs(p):
    """inv σ by testing every pair of positions, the reference for ``inv``."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def descent_position_sum(w):
    """maj w as the sum of the positions i with w_i > w_{i+1}, the reference
    for ``maj``."""
    return sum(i for i in range(1, len(w)) if w[i - 1] > w[i])


def descent_set(p: Perm) -> set[int]:
    """Positions i (1-based) with p(i) > p(i+1).

    >>> sorted(descent_set((9, 3, 5, 7, 2, 1, 4, 6, 8)))
    [1, 4, 5]
    """
    return {i + 1 for i in range(len(p) - 1) if p[i] > p[i + 1]}


def composition_descent_set(comp: Composition) -> set[int]:
    """Proper partial sums of the parts (the final sum n is excluded).

    >>> sorted(composition_descent_set((2, 1, 1, 2)))
    [2, 3, 4]
    """
    return set(itertools.accumulate(comp[:-1]))


def composition_from_descent_set(descents: Iterable[int], n: int) -> Composition:
    """The composition of ``n`` whose proper partial sums are ``descents``.

    >>> composition_from_descent_set({2, 3, 4}, 6)
    (2, 1, 1, 2)
    """
    if n < 0:
        raise ValueError(f'negative size {n}')
    parts = []
    prev = 0
    for d in sorted(descents):
        if not prev < d < n:
            raise ValueError(f'descent {d} outside 1..{n - 1}' if n > 1
                             else f'descent {d}: size {n} has no cuts')
        parts.append(d - prev)
        prev = d
    parts.append(n - prev)
    return tuple(parts) if n else ()


def shuffle(u, v):
    """All interleavings of ``u`` and ``v``, lexicographically sorted, with
    multiplicity.

    >>> [''.join(map(str, w)) for w in shuffle((1, 2), (4, 3))]
    ['1243', '1423', '1432', '4123', '4132', '4312']
    >>> shuffle((1,), ()) == [(1,)]
    True
    """
    out = []
    for positions in itertools.combinations(range(len(u) + len(v)), len(u)):
        w = list(v)
        for i, x in zip(positions, u):
            w.insert(i, x)
        out.append(tuple(w))
    out.sort()
    return out


def shifted_shuffle(a, b):
    """Shuffle of ``a`` with ``b`` shifted by the size of ``a``, sorted.

    Every element is a permutation of size ``len(a) + len(b)``.

    >>> [''.join(map(str, p)) for p in shifted_shuffle((1, 2), (1,))]
    ['123', '132', '312']
    """
    return shuffle(a, shifted_word(b, len(a)))


def identity_block_shuffle(comp):
    """The shifted shuffle id_{i_1} ⩂ id_{i_2} ⩂ ... ⩂ id_{i_r}, sorted,
    built one block at a time.

    >>> [''.join(map(str, p)) for p in identity_block_shuffle((2, 1))]
    ['123', '132', '312']
    """
    acc = [()]
    for part in comp:
        block = tuple(range(1, part + 1))
        acc = sorted({w for u in acc for w in shifted_shuffle(u, block)})
    return acc


def generic_encode(family, p):
    """Encode through the τ insertion alone: delete the letter 1, at slot i,
    and shift the other letters down by one to get β; the next entry is
    τ(β)(i), and β is encoded in turn until the word is empty.

    Agrees with ``family.encode`` for the three built-in families.

    >>> generic_encode(FAMILIES['scode'], (4, 3, 1, 2, 5))
    (3, 3, 2, 0, 0)
    """
    out = []
    while p:
        i = p.index(1)
        p = tuple(x - 1 for x in p[:i] + p[i + 1:])
        out.append(family.tau(p)[i])
    return tuple(out)


def generic_decode(family, c):
    """Invert ``generic_encode``: read the code from its last entry to its
    first, inserting into β (from the empty word) the letter 1 at the slot i
    with τ(β)(i) equal to the entry.

    τ(β) is a bijection of {0, ..., n}, so exactly one slot matches.

    >>> generic_decode(FAMILIES['majcode'], (5, 0, 1, 0, 1, 2, 0, 1, 0))
    (9, 3, 5, 7, 2, 1, 4, 6, 8)
    """
    c = tuple(c)
    if not is_subdiagonal(c):
        raise ValueError(f'not a sub-diagonal code: {c}')
    beta = ()
    for entry in reversed(c):
        beta = insert_one_at(beta, family.tau(beta).index(entry))
    return beta


def q_factorial(n: int) -> QPolynomial:
    """[n]_q! = Π_{i=1..n} (1 + q + ... + q^{i-1}) as a degree->coeff map."""
    out: QPolynomial = {0: 1}
    for i in range(1, n + 1):
        nxt: QPolynomial = {}
        for deg, coeff in out.items():
            for j in range(i):
                nxt[deg + j] = nxt.get(deg + j, 0) + coeff
        out = nxt
    return out


def q_statistic(n: int, stat) -> QPolynomial:
    """Distribution Σ_{σ∈S_n} q^{stat(σ)} as a degree->coeff map.

    ``stat`` is a callable on permutations or one of the names 'maj', 'inv',
    'des'.
    """
    if isinstance(stat, str):
        stat = {'maj': maj, 'inv': inv, 'des': des}[stat]
    return dict(Counter(map(stat, iter_permutations(n))))


def s_code_of_tree(lt):
    """Father labels, minus one, of n, n−1, ..., 2 in an increasing tree of
    size n."""
    father = {}

    def walk(node):
        label, children = node
        for child in children:
            father[child[0]] = label
            walk(child)

    walk(lt)
    return tuple(father[v] - 1 for v in range(len(father) + 1, 1, -1))


def coarser_class(comp):
    """All permutations whose descent set lies in Set(comp), sorted."""
    allowed = composition_descent_set(comp)
    return [p for p in iter_permutations(sum(comp)) if descent_set(p) <= allowed]


def theorem_items(n, comp, family_names):
    subject = f'I={format_composition(comp)}'
    members = descent_class(comp)
    inverses = [inverse(p) for p in members]
    ie = ribbon_flagged(comp)
    _, witness = _difference(_monomial, 'inclusion-exclusion', ie.terms,
                             'determinant', ribbon_determinant(comp).terms)
    for name in family_names:
        if witness:
            break
        codes = [sorted_code(FAMILIES[name].encode(q)) for q in inverses]
        mono, witness = _difference(_monomial, name, Counter(codes), 'ribbon', ie.terms)
        if mono in codes:
            least = members[codes.index(mono)]
            witness += f'; least contributing sigma: {format_permutation(least)}'
    return [CheckItem('theorem', n, subject, not witness, witness)]


def coarse_items(n, comp, family_names):
    subject = f'I={format_composition(comp)}'
    shuffle_set = identity_block_shuffle(comp)
    expected = h_product(comp).terms
    witness = ''
    for name in family_names:
        got = Counter(sorted_code(FAMILIES[name].encode(p)) for p in shuffle_set)
        _, witness = _difference(_monomial, name, got, 'h_product', expected)
        if witness:
            break
    return [CheckItem('coarse', n, subject, not witness, witness)]


def em_items(n, family: CodeFamily):
    # (Σ code(σ^{-1}), maj σ^{-1}, inv σ, des σ) over S_n
    stats = Counter(
        (sum(family.encode(q)), maj(q), inv(p), des(p))
        for p in iter_permutations(n) for q in [inverse(p)]
    )
    code = Counter((key[0], key[3]) for key in stats.elements())
    witness = ''
    for label, column in (('maj of inverse', 1), ('inv', 2)):
        other = Counter((key[column], key[3]) for key in stats.elements())
        _, witness = _difference(lambda key: f'pair (stat, des)={key}',
                                 'code sum', code, label, other)
        if witness:
            break
    return [CheckItem('em', n, f'family={family.name}', not witness, witness)]


def fs_items(n, comp, family_names):
    subject = f'I={format_composition(comp)}'
    members = descent_class(comp)
    inverses = [inverse(p) for p in members]
    q_inv = Counter(map(inv, members))
    q_maj_inverse = Counter(map(maj, inverses))
    witness = ''
    if q_inv != q_maj_inverse:
        witness = (f'inv distribution {format_q_polynomial(q_inv)} != '
                   f'maj-of-inverse {format_q_polynomial(q_maj_inverse)}')
    for name in family_names:
        if witness:
            break
        q_code = Counter(sum(FAMILIES[name].encode(q)) for q in inverses)
        if q_code != q_inv:
            witness = (f'{name} q-specialization {format_q_polynomial(q_code)} != '
                       f'{format_q_polynomial(q_inv)}')
    return [CheckItem('fs', n, subject, not witness, witness)]


def ncinv_items(n, comp, family_names):
    """The invcode words of the whole shuffle set of I against the
    concatenation product E(I), built as every choice of one nondecreasing
    block per part."""
    encode = FAMILIES['invcode'].encode
    got = Counter(encode(p) for p in identity_block_shuffle(comp))
    blocks = [
        itertools.combinations_with_replacement(range(size + 1), part)
        for part, size in zip(comp, alphabet_flag(comp))
    ]
    expected = Counter(
        tuple(itertools.chain.from_iterable(pieces))
        for pieces in itertools.product(*blocks)
    )
    _, witness = _difference(_word, 'invcode words', got,
                             'concatenation product', expected)
    return [CheckItem('ncinv', n, f'I={format_composition(comp)}', not witness, witness)]


def scstep_witness(m, k):
    """For each β in S_m, the length-k prefixes of the saillance codes of
    the shifted shuffles of id_k with β against every word over {0..m} whose
    letters are nondecreasing in the order τ_S(β)."""
    encode = FAMILIES['scode'].encode
    for beta in iter_permutations(m):
        rank = {value: i for i, value in enumerate(tau_s(beta))}
        expected = Counter(
            word for word in itertools.product(range(m + 1), repeat=k)
            if all(rank[a] <= rank[b] for a, b in zip(word, word[1:]))
        )
        got = Counter(encode(p)[:k] for p in shifted_shuffle(tuple(range(1, k + 1)), beta))
        _, detail = _difference(_word, 'prefixes', got,
                                'tau_S-nondecreasing words', expected)
        if detail:
            return f'beta={format_permutation(beta)}: {detail}'
    return ''


def scstep_items(n, m):
    """scstep at size n for one m, every k ≤ n − m witnessed afresh."""
    items = []
    for k in range(1, n - m + 1):
        witness = scstep_witness(m, k)
        items.append(CheckItem('scstep', n, f'm={m} k={k}', not witness, witness))
    return items


def _compositions(n, family_names):
    return compositions_of(n)


#: Check name -> (units (n, family names) -> units, items (n, unit, family
#: names) -> [CheckItem]), one unit per composition, family or m.
DIRECT_CHECKS = {
    'theorem': (_compositions, theorem_items),
    'coarse': (_compositions, coarse_items),
    'ncinv': (lambda n, names: compositions_of(n) if 'invcode' in names else (),
              ncinv_items),
    'scstep': (lambda n, names: range(n) if 'scode' in names else (),
               lambda n, m, names: scstep_items(n, m)),
    'em': (lambda n, names: names,
           lambda n, name, names: em_items(n, FAMILIES[name])),
    'fs': (_compositions, fs_items),
}


def direct_report(n_max, checks=verify.CHECK_NAMES,
                  family_names=tuple(FAMILIES)) -> VerificationReport:
    """``run_checks(n_max, checks, family_names)`` by the direct routes."""
    items = []
    for n in range(1, n_max + 1):
        for check in checks:
            units, unit_items = DIRECT_CHECKS[check]
            for unit in units(n, family_names):
                items.extend(unit_items(n, unit, family_names))
    return VerificationReport.from_items(items)
