"""Exhaustive verification of the equidistribution theorems.

Every check enumerates honestly — no result is assumed.  The engine compares,
for each descent class D_I, the generating functions of the three sorted codes
of inverses against the flagged ribbon computed by both inclusion-exclusion
and determinant; and verifies the shuffle-product factorizations, the
noncommutative inverse-code identity, the saillance step-alphabet lemma, and
the Euler-Mahonian joint distributions.

Checks are pure functions of (check name, n, unit), so sweeps parallelize over
units (compositions, mostly) and reports merge deterministically: rendered
output is byte-identical for any worker count.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .codes import (
    CodeFamily,
    FAMILIES,
    inv_code,
    is_acceptable,
    s_code,
    sorted_code,
    tau_s,
)
from .permutations import (
    Composition,
    compositions_of,
    descent_class,
    des,
    format_composition,
    format_permutation,
    identity_block_shuffle,
    inv,
    inverse,
    iter_permutations,
    maj,
    shifted_shuffle,
    identity,
)
from .polynomials import IndexPolynomial, QPolynomial, format_q_polynomial
from .ribbons import (
    alphabet_flag,
    format_monomial,
    h_product,
    ribbon_determinant,
    ribbon_flagged,
)

__all__ = [
    'CheckItem',
    'VerificationReport',
    'ClassDistribution',
    'class_distribution',
    'check_euler_mahonian',
    'run_checks',
    'CHECKS',
    'CHECK_NAMES',
    'q_factorial',
    'q_statistic',
]

DEFAULT_FAMILY_NAMES = ('invcode', 'scode', 'majcode')


@dataclass(frozen=True, order=True)
class CheckItem:
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


@dataclass(frozen=True)
class VerificationReport:
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
            'items': [
                {
                    'check': item.check,
                    'n': item.n,
                    'subject': item.subject,
                    'passed': item.passed,
                    'witness': item.witness,
                }
                for item in self.items
            ],
        }

    @classmethod
    def from_items(cls, items) -> VerificationReport:
        return cls(items=tuple(sorted(items)))


@dataclass(frozen=True)
class ClassDistribution:
    """Generating function of sorted codes of inverses over a descent class."""

    composition: Composition
    family: str
    poly: IndexPolynomial

    @property
    def count(self) -> int:
        return self.poly.total_mass()


def class_distribution(
    comp: Composition, family: CodeFamily, limit: int | None = None
) -> ClassDistribution:
    """Σ over σ in D_I of the monomial of sorted family-code of σ^{-1}.

    >>> from .codes import INVCODE
    >>> dist = class_distribution((2, 1), INVCODE)
    >>> sorted(dist.poly.terms)
    [(0, 0, 1), (0, 1, 1)]
    """
    poly = IndexPolynomial(Counter(
        sorted_code(family.encode(inverse(p))) for p in descent_class(comp, limit)
    ))
    return ClassDistribution(comp, family.name, poly)


def _difference(show, label_a: str, a, label_b: str, b):
    """The least key whose counts in the mappings ``a`` and ``b`` differ, and
    a witness naming it and both counts; ``(None, '')`` when they agree."""
    keys = [key for key in a.keys() | b.keys() if a.get(key, 0) != b.get(key, 0)]
    if not keys:
        return None, ''
    key = min(keys)
    return key, (f'{show(key)}: {label_a} has {a.get(key, 0)}, '
                 f'{label_b} has {b.get(key, 0)}')


def _monomial(key) -> str:
    return f'monomial {format_monomial(key)}'


def _word(key) -> str:
    return 'word ' + ''.join(map(str, key))


# ---------------------------------------------------------------------------
# individual checks, one composition / unit at a time


def _theorem_items(n: int, comp: Composition, family_names) -> list[CheckItem]:
    subject = f'I={format_composition(comp)}'
    members = descent_class(comp, limit=n)
    inverses = [inverse(p) for p in members]
    ie = ribbon_flagged(comp)
    _, witness = _difference(_monomial, 'inclusion-exclusion', ie.terms,
                             'determinant', ribbon_determinant(comp).terms)
    for name in family_names:
        if witness:
            break
        codes = [sorted_code(FAMILIES[name].encode(q)) for q in inverses]
        mono, witness = _difference(_monomial, name, Counter(codes), 'ribbon', ie.terms)
        # members are sorted, so the first code equal to the witness
        # monomial belongs to the least contributing σ
        if mono in codes:
            least = members[codes.index(mono)]
            witness += f'; least contributing sigma: {format_permutation(least)}'
    return [CheckItem('theorem', n, subject, not witness, witness)]


def _coarse_items(n: int, comp: Composition, family_names) -> list[CheckItem]:
    subject = f'I={format_composition(comp)}'
    shuffle_set = identity_block_shuffle(comp, limit=n)
    expected = h_product(comp).terms
    witness = ''
    for name in family_names:
        got = Counter(sorted_code(FAMILIES[name].encode(p)) for p in shuffle_set)
        _, witness = _difference(_monomial, name, got, 'h_product', expected)
        if witness:
            break
    return [CheckItem('coarse', n, subject, not witness, witness)]


def _ncinv_items(n: int, comp: Composition, family_names) -> list[CheckItem]:
    subject = f'I={format_composition(comp)}'
    got = Counter(inv_code(p) for p in identity_block_shuffle(comp, limit=n))
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
    return [CheckItem('ncinv', n, subject, not witness, witness)]


def _scstep_witness(m: int, k: int) -> str:
    for beta in iter_permutations(m):
        rank = {value: i for i, value in enumerate(tau_s(beta))}
        expected = Counter(
            word for word in itertools.product(range(m + 1), repeat=k)
            if all(rank[a] <= rank[b] for a, b in zip(word, word[1:]))
        )
        got = Counter(s_code(p)[:k] for p in shifted_shuffle(identity(k), beta))
        _, detail = _difference(_word, 'prefixes', got,
                                'tau_S-nondecreasing words', expected)
        if detail:
            return f'beta={format_permutation(beta)}: {detail}'
    return ''


def _scstep_items(n: int, m: int, family_names) -> list[CheckItem]:
    items = []
    for k in range(1, n - m + 1):
        witness = _scstep_witness(m, k)
        items.append(CheckItem('scstep', n, f'm={m} k={k}', not witness, witness))
    return items


def _em_items(n: int, family: CodeFamily) -> list[CheckItem]:
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


def _fs_items(n: int, comp: Composition, family_names) -> list[CheckItem]:
    subject = f'I={format_composition(comp)}'
    members = descent_class(comp, limit=n)
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
        # x_j -> q^j sends the monomial of a sorted code to q^(its entry sum)
        q_code = Counter(sum(FAMILIES[name].encode(q)) for q in inverses)
        if q_code != q_inv:
            witness = (f'{name} q-specialization {format_q_polynomial(q_code)} != '
                       f'{format_q_polynomial(q_inv)}')
    return [CheckItem('fs', n, subject, not witness, witness)]


def check_euler_mahonian(n: int, family: CodeFamily) -> VerificationReport:
    """Joint multiset equality of (Σ code(σ^{-1}), des σ) with both
    (maj(σ^{-1}), des σ) and (inv σ, des σ).  Requires an acceptable family."""
    result = is_acceptable(family, n)
    if not result.ok:
        raise ValueError(f'family {family.name} is not acceptable: {result.witness}')
    return VerificationReport.from_items(_em_items(n, family))


# ---------------------------------------------------------------------------
# sweep driver


def _compositions(n: int, family_names) -> list[Composition]:
    return compositions_of(n)


#: Check name -> (units function (n, family names) -> units,
#: item function (n, unit, family names) -> [CheckItem]).  A check whose
#: units come out empty is skipped: ncinv needs invcode, scstep needs scode.
#: The em unit is a family name, looked up in FAMILIES when the task runs.
CHECKS = {
    'theorem': (_compositions, _theorem_items),
    'coarse': (_compositions, _coarse_items),
    'ncinv': (lambda n, names: compositions_of(n) if 'invcode' in names else (),
              _ncinv_items),
    'scstep': (lambda n, names: range(n) if 'scode' in names else (),
               _scstep_items),
    'em': (lambda n, names: names,
           lambda n, name, names: _em_items(n, FAMILIES[name])),
    'fs': (_compositions, _fs_items),
}
CHECK_NAMES = tuple(CHECKS)


def _run_task(task) -> list[CheckItem]:
    check, n, unit, families = task
    return CHECKS[check][1](n, unit, families)


def _build_tasks(n_max: int, checks, family_names) -> list[tuple]:
    unknown = [check for check in checks if check not in CHECKS]
    if unknown:
        raise ValueError(f'unknown check {unknown[0]!r}')
    families = tuple(family_names)
    tasks = [
        (check, n, unit, families)
        for n in range(1, n_max + 1)
        for check in checks
        for unit in CHECKS[check][0](n, families)
    ]
    if not tasks:
        raise ValueError('the selection runs no checks: n must be at least 1, '
                         'ncinv needs family ic and scstep needs sc')
    return tasks


def run_checks(
    n_max: int,
    checks=CHECK_NAMES,
    family_names=DEFAULT_FAMILY_NAMES,
    workers: int = 1,
) -> VerificationReport:
    """Run the selected check suites for every size 1..n_max.

    The report is independent of ``workers``: tasks are pure and items are
    sorted before rendering.  ``workers`` is clamped to the CPU count and the
    number of tasks; at one worker the tasks run in this process.
    """
    tasks = _build_tasks(n_max, checks, family_names)
    workers = min(workers, os.cpu_count() or 1, len(tasks))
    items: list[CheckItem] = []
    if workers <= 1:
        for task in tasks:
            items.extend(_run_task(task))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for result in pool.map(_run_task, tasks, chunksize=4):
                items.extend(result)
    return VerificationReport.from_items(items)


# ---------------------------------------------------------------------------
# classical q-identities used by the acceptance suite


def q_factorial(n: int) -> QPolynomial:
    """[n]_q! = Π_{i=1..n} (1 + q + ... + q^{i-1}) as a degree->coeff map.

    >>> q_factorial(3)
    {0: 1, 1: 2, 2: 2, 3: 1}
    """
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
