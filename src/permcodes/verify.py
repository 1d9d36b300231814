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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .codes import CodeFamily, FAMILIES, inv_code, s_code, sorted_code, tau_s
from .permutations import (
    Composition,
    Perm,
    compositions_of,
    descent_composition,
    des,
    format_composition,
    identity_block_shuffle,
    inv,
    inverse,
    iter_permutations,
    maj,
    shifted_shuffle,
    identity,
)
from .polynomials import IndexPolynomial, QPolynomial
from .ribbons import format_monomial, h_product, ribbon_determinant, ribbon_flagged

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


def _descent_class_members(comp: Composition) -> list[Perm]:
    n = sum(comp)
    return [p for p in iter_permutations(n) if descent_composition(p) == comp]


def class_distribution(
    comp: Composition, family: CodeFamily, limit: int | None = None
) -> ClassDistribution:
    """Σ over σ in D_I of the monomial of sorted family-code of σ^{-1}.

    >>> from .codes import INVCODE
    >>> dist = class_distribution((2, 1), INVCODE)
    >>> sorted(dist.poly.terms)
    [(0, 0, 1), (0, 1, 1)]
    """
    from .permutations import _check_limit

    _check_limit(sum(comp), limit)
    poly = IndexPolynomial.zero()
    for p in _descent_class_members(comp):
        poly = poly + IndexPolynomial.monomial(sorted_code(family.encode(inverse(p))))
    return ClassDistribution(comp, family.name, poly)


def _poly_diff_witness(label_a: str, a: IndexPolynomial,
                       label_b: str, b: IndexPolynomial) -> str:
    """Minimal differing monomial between two polynomials."""
    keys = sorted(set(a.terms) | set(b.terms))
    for key in keys:
        ca = a.terms.get(key, 0)
        cb = b.terms.get(key, 0)
        if ca != cb:
            return (
                f'monomial {format_monomial(key)}: '
                f'{label_a} has {ca}, {label_b} has {cb}'
            )
    return ''


def _word_multiset_witness(label_a: str, a: dict, label_b: str, b: dict) -> str:
    for key in sorted(set(a) | set(b)):
        ca = a.get(key, 0)
        cb = b.get(key, 0)
        if ca != cb:
            word = ''.join(map(str, key))
            return f'word {word}: {label_a} has {ca}, {label_b} has {cb}'
    return ''


# ---------------------------------------------------------------------------
# individual checks, one composition / unit at a time


def _theorem_items(n: int, comp: Composition, family_names) -> list[CheckItem]:
    subject = f'I={format_composition(comp)}'
    dists = [
        class_distribution(comp, FAMILIES[name], limit=n)
        for name in family_names
    ]
    expected_count = len(_descent_class_members(comp))
    for dist in dists:
        if dist.count != expected_count:
            return [CheckItem('theorem', n, subject, False,
                              f'{dist.family} multiplicity {dist.count} != |D_I| '
                              f'{expected_count}')]
    ie = ribbon_flagged(comp)
    det = ribbon_determinant(comp)
    if ie != det:
        return [CheckItem('theorem', n, subject, False,
                          _poly_diff_witness('inclusion-exclusion', ie,
                                             'determinant', det))]
    for dist in dists:
        if dist.poly != ie:
            witness = _poly_diff_witness(dist.family, dist.poly, 'ribbon', ie)
            witness += _least_failing_perm(comp, dist.family, dist.poly, ie)
            return [CheckItem('theorem', n, subject, False, witness)]
    return [CheckItem('theorem', n, subject, True)]


def _least_failing_perm(comp: Composition, family_name: str,
                        got: IndexPolynomial, expected: IndexPolynomial) -> str:
    """The lexicographically least member of D_I contributing to the first
    differing monomial, when the family side has a surplus there."""
    keys = sorted(set(got.terms) | set(expected.terms))
    mono = next(
        (k for k in keys if got.terms.get(k, 0) != expected.terms.get(k, 0)),
        None,
    )
    if mono is None:
        return ''
    family = FAMILIES[family_name]
    for p in _descent_class_members(comp):
        if sorted_code(family.encode(inverse(p))) == mono:
            from .permutations import format_permutation

            return f'; least contributing sigma: {format_permutation(p)}'
    return ''


def _coarse_items(n: int, comp: Composition, family_names) -> list[CheckItem]:
    subject = f'I={format_composition(comp)}'
    shuffle_set = identity_block_shuffle(comp, limit=n)
    expected = h_product(comp)
    for name in family_names:
        family = FAMILIES[name]
        got = IndexPolynomial.zero()
        for p in shuffle_set:
            got = got + IndexPolynomial.monomial(sorted_code(family.encode(p)))
        if got != expected:
            witness = _poly_diff_witness(name, got, 'h_product', expected)
            return [CheckItem('coarse', n, subject, False, witness)]
    return [CheckItem('coarse', n, subject, True)]


def _ncinv_items(n: int, comp: Composition, family_names) -> list[CheckItem]:
    subject = f'I={format_composition(comp)}'
    got: dict[tuple, int] = {}
    for p in identity_block_shuffle(comp, limit=n):
        word = inv_code(p)
        got[word] = got.get(word, 0) + 1
    expected: dict[tuple, int] = {}
    suffixes = []
    total = 0
    for part in reversed(comp):
        suffixes.append(total)
        total += part
    suffixes.reverse()
    blocks = [
        list(itertools.combinations_with_replacement(range(suffix + 1), part))
        for part, suffix in zip(comp, suffixes)
    ]
    for pieces in itertools.product(*blocks):
        word = tuple(itertools.chain.from_iterable(pieces))
        expected[word] = expected.get(word, 0) + 1
    if got != expected:
        witness = _word_multiset_witness('invcode words', got,
                                         'concatenation product', expected)
        return [CheckItem('ncinv', n, subject, False, witness)]
    return [CheckItem('ncinv', n, subject, True)]


def _scstep_items(n: int, m: int, family_names) -> list[CheckItem]:
    items = []
    for k in range(1, n - m + 1):
        subject = f'm={m} k={k}'
        failure = None
        for beta in iter_permutations(m):
            order = tau_s(beta)
            rank = {value: i for i, value in enumerate(order)}
            expected: dict[tuple, int] = {}
            for word in itertools.product(range(m + 1), repeat=k):
                if all(rank[word[i]] <= rank[word[i + 1]] for i in range(k - 1)):
                    expected[word] = expected.get(word, 0) + 1
            got: dict[tuple, int] = {}
            for p in shifted_shuffle(identity(k), beta):
                prefix = s_code(p)[:k]
                got[prefix] = got.get(prefix, 0) + 1
            if got != expected:
                failure = (beta, _word_multiset_witness(
                    'prefixes', got, 'tau_S-nondecreasing words', expected))
                break
        if failure is None:
            items.append(CheckItem('scstep', n, subject, True))
        else:
            beta, detail = failure
            from .permutations import format_permutation

            items.append(CheckItem(
                'scstep', n, subject, False,
                f'beta={format_permutation(beta)}: {detail}'))
    return items


def _em_items(n: int, family: CodeFamily) -> list[CheckItem]:
    subject = f'family={family.name}'
    joint_code: dict[tuple[int, int], int] = {}
    joint_maj: dict[tuple[int, int], int] = {}
    joint_inv: dict[tuple[int, int], int] = {}
    for p in iter_permutations(n):
        d = des(p)
        q = inverse(p)
        key = (sum(family.encode(q)), d)
        joint_code[key] = joint_code.get(key, 0) + 1
        key = (maj(q), d)
        joint_maj[key] = joint_maj.get(key, 0) + 1
        key = (inv(p), d)
        joint_inv[key] = joint_inv.get(key, 0) + 1
    for label, other in (('maj of inverse', joint_maj), ('inv', joint_inv)):
        if joint_code != other:
            for key in sorted(set(joint_code) | set(other)):
                if joint_code.get(key, 0) != other.get(key, 0):
                    witness = (
                        f'pair (stat, des)={key}: code sum has '
                        f'{joint_code.get(key, 0)}, {label} has {other.get(key, 0)}'
                    )
                    return [CheckItem('em', n, subject, False, witness)]
    return [CheckItem('em', n, subject, True)]


def _fs_items(n: int, comp: Composition, family_names) -> list[CheckItem]:
    subject = f'I={format_composition(comp)}'
    members = _descent_class_members(comp)
    q_inv: QPolynomial = {}
    q_maj_inverse: QPolynomial = {}
    for p in members:
        d = inv(p)
        q_inv[d] = q_inv.get(d, 0) + 1
        d = maj(inverse(p))
        q_maj_inverse[d] = q_maj_inverse.get(d, 0) + 1
    if q_inv != q_maj_inverse:
        return [CheckItem('fs', n, subject, False,
                          f'inv distribution {q_inv} != maj-of-inverse '
                          f'{q_maj_inverse}')]
    for name in family_names:
        dist = class_distribution(comp, FAMILIES[name], limit=n)
        if dist.poly.q_by_index_sum() != q_inv:
            return [CheckItem('fs', n, subject, False,
                              f'{name} q-specialization '
                              f'{dist.poly.q_by_index_sum()} != {q_inv}')]
    return [CheckItem('fs', n, subject, True)]


def check_euler_mahonian(n: int, family: CodeFamily) -> VerificationReport:
    """Joint multiset equality of (Σ code(σ^{-1}), des σ) with both
    (maj(σ^{-1}), des σ) and (inv σ, des σ).  Requires an acceptable family."""
    from .codes import is_acceptable

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
    return [
        (check, n, unit, families)
        for n in range(1, n_max + 1)
        for check in checks
        for unit in CHECKS[check][0](n, families)
    ]


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
    out: QPolynomial = {}
    for p in iter_permutations(n):
        d = stat(p)
        out[d] = out.get(d, 0) + 1
    return out
