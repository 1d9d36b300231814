"""Exhaustive verification of the equidistribution theorems.

Every check enumerates honestly — no result is assumed.  The engine compares,
for each descent class D_I, the generating functions of the three sorted codes
of inverses against the flagged ribbon computed by both inclusion-exclusion
and determinant; and verifies the shuffle-product factorizations, the
noncommutative inverse-code identity, the saillance step-alphabet lemma, and
the Euler-Mahonian joint distributions.

``CHECKS`` gives each check a ``Check`` row; by default ``run_checks`` runs
every check whose family is selected.  Per size n, one class pass walks each
D_J of S_n once as a ``_Class`` record, which holds the inverses of D_J as
``inverse_descent_class`` builds them, unsorted.  From the ``Check.reads`` of
the selected rows the record works out which families to encode, and takes
each family's values from one list that it drops before the next family is
encoded: only invcode's list is kept, and only while ncinv is selected.  The
pass meets the classes in the order of ``ribbon_walk(n)``, so theorem reads
each class's two ribbons as the walk's next values, and a pass without
theorem never advances it.  inv σ is read off the merge tables that build
the class: each merge adds a fixed count of inversions, so the walk carries
each word's count and ``verify`` calls no ``permutations.inv``.  maj σ^{-1}
is still computed per word.  theorem and fs compare at each class; a failing
theorem unit encodes its one class again and inverts the inverses whose
sorted code is the witness monomial to name the least.  em sums over all
classes; coarse and ncinv sum over the classes J with Set(J) ⊆ Set(I) by a
subset-sum (zeta) transform over the n − 1 cut positions, and a failing
ncinv unit counts its witness word in the same E′(J) lists.  scstep runs
apart, one task per size n, and reports each (m, k) with m + k = n at every
size from n on; one depth-first insertion walk over S_n encodes each σ once
and counts its code prefixes into the ancestors β whose id_k ⧢ β holds it.
Tasks are pure, so sweeps parallelize over them and reports merge
deterministically: rendered output is byte-identical for any worker count.
"""

from __future__ import annotations

import itertools
import operator
import os
from bisect import bisect_left
from collections import Counter
from functools import cache, cached_property
from typing import Callable, NamedTuple

from .codes import CodeFamily, FAMILIES, sorted_code
from .permutations import (
    Composition,
    Perm,
    _inverse_descent_walk,
    _merge_getters,
    coarser_compositions,
    compositions_of,
    format_composition,
    format_permutation,
    inverse,
    inverse_descent_class,
    maj,
    shifted_word,
)
from .polynomials import IndexPolynomial, format_q_polynomial
from .ribbons import _index_word, alphabet_flag, format_monomial, h_product, ribbon_walk

__all__ = [
    'CheckItem',
    'VerificationReport',
    'class_distribution',
    'run_checks',
    'CHECK_NAMES',
]


class CheckItem(NamedTuple):
    """One verified fact: a named check applied to one unit at one size."""

    check: str
    n: int
    subject: str
    passed: bool
    witness: str = ''

    def render(self) -> str:
        status = 'ok' if self.passed else 'FAIL'
        line = f'{self.check} n={self.n} {self.subject}: {status}'
        if self.witness:
            line += f' [{self.witness}]'
        return line


class VerificationReport(NamedTuple):
    items: tuple[CheckItem, ...]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    @property
    def failures(self) -> tuple[CheckItem, ...]:
        return tuple(item for item in self.items if not item.passed)

    def render_text(self) -> str:
        lines = [item.render() for item in self.items]
        if self.passed:
            lines.append(f'PASS ({len(self.items)} checks)')
        else:
            lines.append(f'FAIL ({len(self.failures)} of {len(self.items)} checks)')
        return '\n'.join(lines)

    def to_json(self) -> dict:
        return {
            'passed': self.passed,
            'items': [item._asdict() for item in self.items],
        }

    @classmethod
    def from_items(cls, items) -> VerificationReport:
        return cls(items=tuple(sorted(items)))


def class_distribution(comp: Composition, family: CodeFamily) -> IndexPolynomial:
    """Σ over σ in D_I of the monomial of sorted family-code of σ^{-1}.

    >>> from .codes import INVCODE
    >>> sorted(class_distribution((2, 1), INVCODE).terms)
    [(0, 0, 1), (0, 1, 1)]
    """
    return IndexPolynomial.from_words(map(family.encode, inverse_descent_class(comp)))


def _difference(show, label_a: str, a, label_b: str, b):
    """The least key whose counts in the mappings ``a`` and ``b`` differ, and
    a witness naming it and both counts; ``(None, '')`` when they agree."""
    if a == b:
        return None, ''
    key = min(key for key in a.keys() | b.keys() if a.get(key, 0) != b.get(key, 0))
    return key, (f'{show(key)}: {label_a} has {a.get(key, 0)}, '
                 f'{label_b} has {b.get(key, 0)}')


def _monomial(key) -> str:
    return f'monomial {format_monomial(key)}'


def _word(key) -> str:
    return f'word {_index_word(key)}'


def _subject(comp: Composition) -> str:
    return f'I={format_composition(comp)}'


# ---------------------------------------------------------------------------
# the checks read off the class pass, one size at a time


class _Class:
    """One descent class D_I: the inverses of its members, unsorted, and
    what the selected rows read of it; ``reads`` holds their ``Check.reads``.
    Each family a row reads is encoded once into one list, which is dropped
    once its sorted-code polynomial ('polys', into ``polys``) and its
    code-sum counts ('sums', into ``q_stats``, followed by those of
    maj σ^{-1} and inv σ) are taken; only a family that ``reads`` names
    keeps its list, in ``codes``."""

    def __init__(self, comp: Composition, names, walk, reads) -> None:
        self.comp = comp
        self.names = names
        self.inverses, invs = _inverse_descent_walk(comp)
        self._walk = walk
        self.polys: list[IndexPolynomial] = []
        self.codes: dict[str, list] = {}
        sums = []
        for name in names:
            if not reads & {'polys', 'sums', name}:
                continue
            codes = list(map(FAMILIES[name].encode, self.inverses))
            if 'polys' in reads:
                self.polys.append(IndexPolynomial.from_words(codes))
            if 'sums' in reads:
                sums.append(Counter(map(sum, codes)))
            if name in reads:
                self.codes[name] = codes
            # dropped before the next family is encoded
            del codes
        if 'sums' in reads:
            # inv σ counted as the walk's inv σ^{-1}, which is equal
            self.q_stats = [*sums, Counter(map(maj, self.inverses)), Counter(invs)]

    @cached_property
    def ribbons(self) -> tuple[IndexPolynomial, IndexPolynomial]:
        """r_I by inclusion-exclusion and by determinant: the next values of
        the size's ``ribbon_walk``, which meets the classes in the class
        pass's order, so a pass that never reads this never advances it."""
        return next(self._walk)[1:]


def _subset_sums(by_comp: dict, add) -> dict:
    """Given values ``by_comp[J]`` for every composition J of one n, whatever
    ``add`` sums, replace them with I -> Σ_{Set(J) ⊆ Set(I)} by_comp[J] in a
    subset-sum (zeta) transform over the n − 1 cut positions, cut s at bit
    s − 1 of a mask, and return ``by_comp``."""
    by_mask = {sum(1 << (s - 1) for s in itertools.accumulate(comp[:-1])): comp
               for comp in by_comp}
    step = 1
    while step < len(by_mask):
        for mask, comp in by_mask.items():
            if mask & step:
                by_comp[comp] = add(by_comp[comp], by_comp[by_mask[mask ^ step]])
        step <<= 1
    return by_comp


def _add_into(counts: Counter, other: dict) -> Counter:
    """``counts`` with ``other`` added in place: a key whose counts cancel is
    dropped, negative counts are kept."""
    for key, count in other.items():
        counts[key] += count
        if not counts[key]:
            del counts[key]
    return counts


def _exact_descent_words(comp: Composition) -> list[tuple[int, ...]]:
    """E′(J) for a composition J of n ≥ 1, sorted: the words of the
    concatenation product E(J) of nondecreasing blocks of sizes ``comp`` over
    its alphabet flag whose descent set is exactly Set(J).

    Built from the last block, whose alphabet is {0}: an earlier block is
    kept only in front of the words whose first letter is below its last.

    >>> [''.join(map(str, w)) for w in _exact_descent_words((2, 1))]
    ['010', '110']
    """
    flag = alphabet_flag(comp)
    words = [(0,) * comp[-1]]
    for a in reversed(range(len(comp) - 1)):
        firsts = [word[0] for word in words]
        words = [
            block + word
            for block in itertools.combinations_with_replacement(
                range(flag[a] + 1), comp[a])
            for word in words[:bisect_left(firsts, block[-1])]
        ]
    return words


def _theorem_item(n: int, cls: _Class) -> CheckItem:
    ribbon, determinant = cls.ribbons
    witness = ''
    if ribbon != determinant:
        _, witness = _difference(_monomial, 'inclusion-exclusion', ribbon.terms,
                                 'determinant', determinant.terms)
    for name, got in zip(cls.names, cls.polys):
        if witness or got == ribbon:
            continue
        mono, witness = _difference(_monomial, name, got.terms, 'ribbon', ribbon.terms)
        # the class holds no codes past its polynomials: encode it again
        encode = FAMILIES[name].encode
        contributing = [p for p in cls.inverses if sorted_code(encode(p)) == mono]
        if contributing:
            least = min(map(inverse, contributing))
            witness += f'; least contributing sigma: {format_permutation(least)}'
    return CheckItem('theorem', n, _subject(cls.comp), not witness, witness)


def _fs_item(n: int, cls: _Class) -> CheckItem:
    *q_codes, q_maj_inverse, q_inv = cls.q_stats
    witness = ''
    if q_inv != q_maj_inverse:
        witness = (f'inv distribution {format_q_polynomial(q_inv)} != '
                   f'maj-of-inverse {format_q_polynomial(q_maj_inverse)}')
    for name, q_code in zip(cls.names, q_codes):
        # x_j -> q^j sends the monomial of a sorted code to q^(its entry sum)
        if not witness and q_code != q_inv:
            witness = (f'{name} q-specialization {format_q_polynomial(q_code)} != '
                       f'{format_q_polynomial(q_inv)}')
    return CheckItem('fs', n, _subject(cls.comp), not witness, witness)


def _summed_em_items(n: int, names, by_comp) -> list[CheckItem]:
    """em from the per-class counts of code sums, maj σ^{-1} and inv σ."""
    pairs = [Counter() for _ in range(len(names) + 2)]
    for comp, counts in by_comp.items():
        for total, q in zip(pairs, counts):
            # des σ = l(J) − 1 on D_J
            total.update({(stat, len(comp) - 1): count for stat, count in q.items()})
    items = []
    for name, code in zip(names, pairs):
        for label, other in (('maj of inverse', pairs[-2]), ('inv', pairs[-1])):
            _, witness = _difference(lambda key: f'pair (stat, des)={key}',
                                     'code sum', code, label, other)
            if witness:
                break
        items.append(CheckItem('em', n, f'family={name}', not witness, witness))
    return items


def _zeta_coarse_items(n: int, names, by_comp) -> list[CheckItem]:
    """coarse from the first family's per-class sorted-code polynomials and
    each later family's differences from them, ``by_comp[J]``: a family's
    polynomial over {σ : Des σ ⊆ Set(I)} is the first family's subset sum
    plus the subset sum of its differences."""
    sums = _subset_sums(by_comp, lambda a, b: list(map(operator.add, a, b)))
    items = []
    for comp in compositions_of(n):
        expected = h_product(comp)
        first, *differences = sums.pop(comp)
        witness = ''
        for name, difference in zip(names, [IndexPolynomial.zero(), *differences]):
            got = first + difference if difference else first
            if got != expected:
                _, witness = _difference(_monomial, name, got.terms,
                                         'h_product', expected.terms)
                break
        items.append(CheckItem('coarse', n, _subject(comp), not witness, witness))
    return items


def _ncinv_difference(n: int, cls: _Class) -> Counter:
    """The invcode words of D_J's inverses minus E′(J); empty where they agree."""
    words = sorted(cls.codes['invcode'])
    expected = _exact_descent_words(cls.comp)
    if words == expected:
        return Counter()
    return _add_into(Counter(words), dict.fromkeys(expected, -1))


def _zeta_ncinv_items(n: int, names, differences) -> list[CheckItem]:
    """ncinv from the per-class signed differences between the invcode words
    of D_J's inverses and E′(J).  A word w lies in E(I) exactly when
    Des(w) ⊆ Set(I) and w lies in E(Des w), since merging blocks across a
    non-descent keeps them nondecreasing and within the later, smaller
    alphabet; so E(I) is the disjoint union of E′(J) over Set(J) ⊆ Set(I), as
    the shuffle set of I is the union of the inverses of those D_J.  The
    subset sum of I is therefore (invcode words of the shuffle set) − E(I).
    The least word with a nonzero sum is the witness: its concatenation
    product count is its count in the E′(J) lists the sum subtracted, and its
    invcode count is that plus its sum."""
    exact_descent_words = cache(_exact_descent_words)
    items = []
    for comp, total in _subset_sums(differences, _add_into).items():
        witness = ''
        if total:
            word = min(total)
            product = sum(exact_descent_words(coarser).count(word)
                          for coarser in coarser_compositions(comp))
            _, witness = _difference(_word, 'invcode words', {word: total[word] + product},
                                     'concatenation product', {word: product})
        items.append(CheckItem('ncinv', n, _subject(comp), not witness, witness))
    return items


# ---------------------------------------------------------------------------
# scstep, every (m, k) with m + k = n for every size from n on, from one
# insertion walk over S_n


def _scstep_node(walk, beta, run: int, first: int) -> None:
    """Count into ``walk`` the scode prefixes of every σ of S_n below
    ``beta`` in the insertion walk, then close ``beta``.

    The children of β in S_m insert a new least letter into each slot of β,
    so the depth-m ancestor of σ is σ with 1, …, n − m deleted and
    standardized, and σ lies in id_(n−m) ⧢ that ancestor exactly when those
    letters rise in σ.  ``run`` is how many of 1, 2, … rise in ``beta``, and
    ``first`` the position of its letter 1: a child rises one letter further
    when its new 1 goes at or before ``first``.  Each σ adds its prefix of
    length k to the list of its ancestor at depth n − k for every k ≤ its
    run.  At close, β's list, sorted, must equal the words nondecreasing in
    the order τ_S(β), sorted, repeats kept; the least failing β of each
    depth is kept with its witness."""
    n, encode, tau, inserts, prefix, prefixes, failures = walk
    m = len(beta)
    # β shifted + (1,) read by insert getter j: the child with its 1 at slot j
    word = shifted_word(beta, 1) + (1,)
    if m + 1 < n:
        for slot, insert in enumerate(inserts[m]):
            _scstep_node(walk, insert(word), run + 1 if slot <= first else 1, slot)
    else:
        codes = [encode(insert(word)) for insert in inserts[m]]
        prefixes[m] += map(prefix[1], codes)
        for k in range(2, run + 2):
            prefixes[n - k] += map(prefix[k], codes[:first + 1])
    got, prefixes[m] = sorted(prefixes[m]), []
    # the words nondecreasing in the order τ_S(β), each once
    expected = sorted(itertools.combinations_with_replacement(tau(beta), n - m))
    if got != expected and (m not in failures or beta < failures[m][0]):
        _, detail = _difference(_word, 'prefixes', Counter(got),
                                'tau_S-nondecreasing words', Counter(expected))
        failures[m] = beta, f'beta={format_permutation(beta)}: {detail}'


def _scstep_items(n: int, n_max: int) -> list[CheckItem]:
    """The scstep items of each (m, k) with m + k = n at every size from n
    to ``n_max``: a witness depends on (m, k) alone, so one walk over S_n
    computes all of them, encoding each σ once."""
    family = FAMILIES['scode']
    # inserts[d][j]: the getter that places the last letter of a word of
    # d + 1 letters after j of the others, the walk's own (d, 1) table
    inserts = [_merge_getters(d, 1)[0] for d in range(n)]
    prefix = [operator.itemgetter(slice(k)) for k in range(n + 1)]
    failures: dict[int, tuple[Perm, str]] = {}
    walk = (n, family.encode, family.tau, inserts, prefix, [[] for _ in range(n)],
            failures)
    _scstep_node(walk, (), 0, 0)
    witnesses = [failures.get(m, ((), ''))[1] for m in range(n)]
    return [CheckItem('scstep', size, f'm={m} k={n - m}', not witness, witness)
            for m, witness in enumerate(witnesses) for size in range(n, n_max + 1)]


# ---------------------------------------------------------------------------
# the check table and the sweep driver


class Check(NamedTuple):
    """A row of ``CHECKS``: the code family the check reads, None for every
    selected one; for a check read off the class pass, its value at one
    ``_Class`` and its items from the values at every class of one size; for
    a check run apart, its task per size.  ``reads`` is what ``per_class``
    reads of the codes: 'polys' or 'sums' of every family, or the name of
    the one family whose code list the record keeps."""

    family: str | None = None
    per_class: Callable | None = None
    finish: Callable | None = None
    per_size: Callable | None = None
    reads: str = ''


def _listed(n: int, names, by_comp: dict) -> list[CheckItem]:
    return list(by_comp.values())


#: Row order fixes ``CHECK_NAMES`` and the run order; the report sorts items
#: by check name.
CHECKS = {
    'theorem': Check(per_class=_theorem_item, finish=_listed, reads='polys'),
    # later families keep their difference from the first: zero where theorem holds
    'coarse': Check(per_class=lambda n, cls: [cls.polys[0], *(
        got - cls.polys[0] for got in cls.polys[1:])], finish=_zeta_coarse_items,
        reads='polys'),
    'ncinv': Check('invcode', _ncinv_difference, _zeta_ncinv_items, reads='invcode'),
    'scstep': Check('scode', per_size=_scstep_items),
    'em': Check(per_class=lambda n, cls: cls.q_stats, finish=_summed_em_items,
                reads='sums'),
    'fs': Check(per_class=_fs_item, finish=_listed, reads='sums'),
}
CHECK_NAMES = tuple(CHECKS)


def _class_items(n: int, checks, names) -> list[CheckItem]:
    """The items at size n of the selected ``checks`` that read a class, for
    the code families named ``names``, from one walk over the descent
    classes of S_n in the order of ``ribbon_walk``: each ``_Class`` record
    computes once what those checks read of it, and is dropped before the
    next class."""
    values = {check: {} for check in checks}
    reads = {CHECKS[check].reads for check in checks}
    walk = ribbon_walk(n)
    for comp in [comp[::-1] for comp in compositions_of(n)]:
        cls = _Class(comp, names, walk, reads)
        for check, by_comp in values.items():
            by_comp[comp] = CHECKS[check].per_class(n, cls)
        # dropped before the next record encodes
        del cls
    return [item for check, by_comp in values.items()
            for item in CHECKS[check].finish(n, names, by_comp)]


def _run_task(task) -> list[CheckItem]:
    return task[0](*task[1:])


def _build_tasks(n_max: int, checks, family_names) -> list[tuple]:
    """Per size n, largest first: one class pass for the selected checks
    that read a class, and the task of each other selected check.  A check
    whose ``CHECKS`` row names a family needs that family selected;
    ``checks=None`` selects every check whose family is selected."""
    unknown = [check for check in checks or () if check not in CHECKS]
    if unknown:
        raise ValueError(f'unknown checks {unknown}; choose from {",".join(CHECK_NAMES)}')
    names = tuple(dict.fromkeys(family_names))
    for name in names:
        if name not in FAMILIES:
            raise ValueError(f'unknown family {name!r}; choose from {", ".join(FAMILIES)}')
    if not names:
        raise ValueError('no code families selected')
    if checks is None:
        checks = [check for check, row in CHECKS.items() if row.family in (None, *names)]
    for check in checks:
        if CHECKS[check].family not in (None, *names):
            raise ValueError(f'check {check} needs code family {CHECKS[check].family!r}')
    rows = {check: row for check, row in CHECKS.items() if check in checks}
    class_checks = tuple(check for check, row in rows.items() if row.per_class)
    per_size = [(_class_items, class_checks, names)] if class_checks else []
    per_size += [(row.per_size, n_max) for row in rows.values() if row.per_size]
    tasks = [(task, n, *args) for n in range(n_max, 0, -1) for task, *args in per_size]
    if not tasks:
        raise ValueError('the selection runs no checks: n must be at least 1 '
                         'and at least one check named')
    return tasks


def run_checks(
    n_max: int,
    checks=None,
    family_names=tuple(FAMILIES),
    workers: int = 1,
) -> VerificationReport:
    """Run the selected check suites for every size 1..n_max: by default
    every check whose code family is among ``family_names``.

    The report is independent of ``workers``: tasks are pure and items are
    sorted before rendering.  ``workers`` below 1 raises ``ValueError``;
    otherwise it is clamped to the CPU count and the number of tasks, and at
    one worker the tasks run in this process.  A worker pool that breaks
    raises ``ValueError``.
    """
    tasks = _build_tasks(n_max, checks, family_names)
    if workers < 1:
        raise ValueError('workers must be at least 1')
    workers = min(workers, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return VerificationReport.from_items(
            itertools.chain.from_iterable(map(_run_task, tasks)))
    # imported here, so that a run in one process never loads the pool
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return VerificationReport.from_items(
                itertools.chain.from_iterable(pool.map(_run_task, tasks)))
    except BrokenProcessPool as exc:
        raise ValueError(f'worker pool failed: {exc}') from exc
