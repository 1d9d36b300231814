"""Machine-verified equidistribution over inverse descent classes.

Fix a composition I and collect the permutations whose inverses have descent
composition I.  Encode each by the inverse, saillance, and major codes, then
sort each code into a multiset.  All three families produce the SAME multiset
distribution, and that distribution is the flagged ribbon r_I.  The verifier
re-derives this from scratch for every composition of every n up to a bound,
alongside five companion checks (coarse products, a noncommutative refinement,
the step-alphabet law, Euler-Mahonian specialization, and the
Foata-Schützenberger statement per class).
"""

from permcodes import (
    FAMILIES,
    class_distribution,
    format_bracket,
    ribbon_flagged,
    run_checks,
    sorted_code,
)
from permcodes.permutations import (
    format_composition,
    format_permutation,
    inverse_descent_class,
)


def main() -> None:
    comp = (2, 1, 1, 2)
    members = sorted(inverse_descent_class(comp))
    print(f'I = {format_composition(comp)}: {len(members)} permutations whose'
          ' inverses have that descent composition')
    print(f'{"sigma":>8} {"Ic sorted":>10} {"Sc sorted":>10} {"Mc sorted":>10}')
    for sigma in members[:6]:
        row = [format_permutation(sigma)]
        for name in ('invcode', 'scode', 'majcode'):
            family = FAMILIES[name]
            row.append(''.join(map(str, sorted_code(family.encode(sigma)))))
        print('{:>8} {:>10} {:>10} {:>10}'.format(*row))
    print(f'    ... ({len(members) - 6} more rows)')
    print()

    # The three distributions coincide, and equal the flagged ribbon.
    dists = {name: class_distribution(comp, FAMILIES[name])
             for name in ('invcode', 'scode', 'majcode')}
    first = dists['invcode']
    assert all(dist == first for dist in dists.values())
    assert first == ribbon_flagged(comp)
    print('sorted-code distribution, identical for all three families:')
    print(f'  {format_bracket(first)}')
    print(f'  == r_{format_composition(comp)} as a flagged ribbon')
    print()

    report = run_checks(5)
    by_check: dict[str, int] = {}
    for item in report.items:
        by_check[item.check] = by_check.get(item.check, 0) + 1
    print('full verification sweep through n = 5:')
    for check, count in sorted(by_check.items()):
        print(f'  {check}: {count} instances')
    print(report.render_text().splitlines()[-1])


if __name__ == '__main__':
    main()
