"""Command-line front end.

Subcommands: code, decode, ribbon, verify, trees, lclass.  Exit status 0 on
success, 1 when a verification sweep finds a failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool

from . import codes, lequiv, ribbons, trees, verify
from .permutations import (
    DEFAULT_ENUMERATION_LIMIT,
    compositions_of,
    conjugate_composition,
    descent_composition,
    format_composition,
    format_permutation,
    inverse,
    iter_permutations,
    parse_composition,
    parse_permutation,
)
from .polynomials import format_q_polynomial

__all__ = ['main', 'build_parser', 'code_table_lines']

WORKERS_ENV = 'PERMCODES_WORKERS'
VERIFY_FAMILIES = 'ic,sc,mc'

#: Each family answers to its name, its short label (``ic``) and its name
#: without the ``code`` suffix (``inv``).
FAMILY_ALIASES = {
    alias: family
    for family in (codes.LEHMER, *codes.FAMILIES.values())
    for alias in (family.name, family.name[0] + 'c', family.name.removesuffix('code'))
}
RIBBON_MODES = {
    'ie': ribbons.ribbon_flagged,
    'det': ribbons.ribbon_determinant,
    'product': ribbons.h_product,
}


class UsageError(Exception):
    pass


def _resolve_families(text: str) -> tuple[codes.CodeFamily, ...]:
    out = []
    for token in text.split(','):
        token = token.strip().lower()
        if not token:
            continue
        family = FAMILY_ALIASES.get(token)
        if family is None:
            raise UsageError(f'unknown code family {token!r}')
        if family not in out:
            out.append(family)
    if not out:
        raise UsageError('no code families selected')
    return tuple(out)


def _check_cap(n: int, allow_large: bool) -> None:
    if n < 0:
        raise UsageError('n must be non-negative')
    if n > DEFAULT_ENUMERATION_LIMIT and not allow_large:
        raise UsageError(
            f'n={n} exceeds the cap {DEFAULT_ENUMERATION_LIMIT}; pass --allow-large '
            f'to accept the runtime'
        )


def _default_workers() -> int:
    try:
        value = int(os.environ.get(WORKERS_ENV, '1'))
    except ValueError:
        return 1
    return max(value, 1)


# ---------------------------------------------------------------------------
# code


def code_table_lines(n: int) -> list[str]:
    """The S_n code table: permutations grouped by inverse descent class,
    each class paired with its conjugate in a second column, classes in
    descending lexicographic order of composition, rows lexicographic."""
    by_class: dict[tuple, list] = {}
    for p in iter_permutations(n):
        by_class.setdefault(descent_composition(inverse(p)), []).append(p)

    def row(p) -> str:
        return ' '.join((
            format_permutation(p),
            codes.format_code(codes.inv_code(p)),
            codes.format_code(codes.maj_code(p)),
            codes.format_code(codes.s_code(p)),
        ))

    lines = ['sigma Ic Mc Sc' + ('   sigma Ic Mc Sc' if n >= 2 else '')]
    groups = [comp for comp in compositions_of(n) if comp and comp[0] >= 2]
    if n == 1:
        groups = [(1,)]
    elif n == 0:
        groups = []
    for comp in groups:
        lines.append('')
        left = sorted(by_class.get(comp, []))
        if n >= 2:
            right = sorted(by_class.get(conjugate_composition(comp), []))
            for lp, rp in zip(left, right):
                lines.append(f'{row(lp)}   {row(rp)}')
        else:
            lines.extend(row(lp) for lp in left)
    return lines


def cmd_code(args) -> int:
    families = _resolve_families(args.families)
    if args.table is not None:
        if args.perm is not None:
            raise UsageError('give a permutation or --table N, not both')
        _check_cap(args.table, args.allow_large)
        lines = code_table_lines(args.table)
        if args.json:
            payload = []
            for p in sorted(iter_permutations(args.table)):
                entry = {'perm': format_permutation(p)}
                for family in families:
                    entry[family.name] = codes.format_code(family.encode(p))
                payload.append(entry)
            print(json.dumps(payload, indent=2))
        else:
            print('\n'.join(lines))
        return 0
    if args.perm is None:
        raise UsageError('a permutation argument or --table N is required')
    p = parse_permutation(args.perm)
    if args.json:
        payload = {'perm': format_permutation(p), 'codes': {}}
        for family in families:
            c = family.encode(p)
            payload['codes'][family.name] = {
                'code': codes.format_code(c),
                'sorted': codes.format_code(codes.sorted_code(c)),
            }
        print(json.dumps(payload, indent=2))
        return 0
    print(f'sigma: {format_permutation(p)}')
    for family in families:
        c = family.encode(p)
        label = family.name[0].upper() + 'c'
        print(f'{label} {codes.format_code(c)}  '
              f'sorted {codes.format_code(codes.sorted_code(c))}')
    return 0


def cmd_decode(args) -> int:
    families = _resolve_families(args.family)
    if len(families) != 1:
        raise UsageError('--family takes exactly one family')
    try:
        c = codes.parse_code(args.code)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    p = families[0].decode(c)
    if args.json:
        print(json.dumps({
            'code': codes.format_code(c),
            'family': families[0].name,
            'perm': format_permutation(p),
        }, indent=2))
    else:
        print(format_permutation(p))
    return 0


# ---------------------------------------------------------------------------
# ribbon


def cmd_ribbon(args) -> int:
    route = RIBBON_MODES[args.mode]
    if args.all is not None:
        if args.composition is not None:
            raise UsageError('give a composition or --all N, not both')
        _check_cap(args.all, args.allow_large)
        if args.json:
            payload = [
                {
                    'composition': format_composition(comp),
                    'terms': ribbons.poly_to_json(route(comp)),
                }
                for comp in compositions_of(args.all)
            ]
            print(json.dumps(payload, indent=2))
        else:
            symbol = 'h' if args.mode == 'product' else 'r'
            print('\n'.join(ribbons.ribbon_table_lines(args.all, route, symbol)))
        return 0
    if args.composition is None:
        raise UsageError('a composition argument or --all N is required')
    try:
        comp = parse_composition(args.composition)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _check_cap(sum(comp), args.allow_large)
    poly = route(comp)
    if args.json:
        print(json.dumps({
            'composition': format_composition(comp),
            'mode': args.mode,
            'terms': ribbons.poly_to_json(poly),
        }, indent=2))
    else:
        print(ribbons.format_bracket(poly))
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    _check_cap(args.n, args.allow_large)
    if args.checks.strip().lower() in ('all', ''):
        selected = verify.CHECK_NAMES
    else:
        selected = tuple(
            token.strip().lower() for token in args.checks.split(',') if token.strip()
        )
        unknown = [c for c in selected if c not in verify.CHECK_NAMES]
        if unknown:
            raise UsageError(
                f'unknown checks {unknown}; choose from {",".join(verify.CHECK_NAMES)}'
            )
    families = _resolve_families(args.families)
    for family in families:
        if family.tau is None:
            raise UsageError(f'code family {family.name!r} has no tau map; '
                             f'verify takes {VERIFY_FAMILIES}')
    if args.workers < 1:
        raise UsageError('--workers must be at least 1')
    names = tuple(family.name for family in families)
    report = verify.run_checks(
        args.n, checks=selected, family_names=names, workers=args.workers
    )
    if args.json:
        config = {'subcommand': 'verify', 'n': args.n, 'families': names,
                  'output': 'json', 'workers': args.workers}
        print(json.dumps({'config': config, 'report': report.to_json()}, indent=2))
    else:
        print(report.render_text())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# trees


def cmd_trees(args) -> int:
    n = args.n
    _check_cap(n, args.allow_large)
    if n < 1:
        raise UsageError('n must be at least 1')
    series = trees.taylor_tree_series(n)
    x_poly = trees.x_polynomial(n)
    c_poly = trees.c_polynomial(max(n - 1, 0))
    eulerian = c_poly.q_by_factor_count()
    if args.json:
        print(json.dumps({
            'n': n,
            'series': [
                {'tree': trees.tree_to_text(t), 'coeff': coeff}
                for t, coeff in sorted(series.items())
            ],
            'x': trees.format_v_polynomial(x_poly),
            'c': trees.format_v_polynomial(c_poly),
            'eulerian': format_q_polynomial(eulerian),
        }, indent=2))
        return 0
    print(f'tree series, {len(series)} shapes:')
    for t, coeff in sorted(series.items()):
        print(f'  {coeff} {trees.tree_to_text(t)}')
    print(f'x_{n} = {trees.format_v_polynomial(x_poly)}')
    print(f'C_{max(n - 1, 0)} = {trees.format_v_polynomial(c_poly)}')
    print(f'eulerian = {format_q_polynomial(eulerian)}')
    return 0


# ---------------------------------------------------------------------------
# lclass


def cmd_lclass(args) -> int:
    if (args.perm is None) == (args.n is None):
        raise UsageError('exactly one of --perm or --n is required')
    if args.perm is not None:
        try:
            p = parse_permutation(args.perm)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        _check_cap(len(p), args.allow_large)
        cls = lequiv.l_class(p)
        if args.json:
            print(json.dumps({
                'perm': format_permutation(p),
                'key': codes.format_code(cls.key),
                'max': format_permutation(cls.max_member),
                'min': format_permutation(cls.min_member),
                'members': [format_permutation(q) for q in cls.members],
            }, indent=2))
        else:
            print(f'class of {format_permutation(p)} '
                  f'(sorted Lcode {codes.format_code(cls.key)}, '
                  f'{len(cls)} members)')
            for q in cls.members:
                print(f'  {format_permutation(q)}')
            print(f'max {format_permutation(cls.max_member)}')
            print(f'min {format_permutation(cls.min_member)}')
        return 0
    _check_cap(args.n, args.allow_large)
    classes = lequiv.l_classes(args.n, limit=args.n)
    if args.json:
        print(json.dumps({
            'n': args.n,
            'count': len(classes),
            'classes': [
                {
                    'key': codes.format_code(cls.key),
                    'max': format_permutation(cls.max_member),
                    'min': format_permutation(cls.min_member),
                    'members': [format_permutation(q) for q in cls.members],
                }
                for cls in classes
            ],
        }, indent=2))
    else:
        print(f'{len(classes)} classes of S_{args.n}')
        for cls in classes:
            print(f'key {codes.format_code(cls.key)} size {len(cls)} '
                  f'min {format_permutation(cls.min_member)} '
                  f'max {format_permutation(cls.max_member)}')
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog='permcodes',
        description='Permutation codes, flagged ribbons, tree calculus, and '
                    'exhaustive equidistribution verification.',
    )
    sub = parser.add_subparsers(dest='subcommand', required=True)

    p_code = sub.add_parser('code', help='codes of a permutation, or a full table')
    p_code.add_argument('perm', nargs='?', help='permutation (digits or comma-separated)')
    p_code.add_argument('--families', default='lc,ic,mc,sc',
                        help='comma list among lc,ic,mc,sc')
    p_code.add_argument('--table', type=int, metavar='N',
                        help='print the full S_N table (Ic, Mc, Sc)')
    p_code.add_argument('--json', action='store_true')
    p_code.add_argument('--allow-large', action='store_true')
    p_code.set_defaults(handler=cmd_code)

    p_dec = sub.add_parser('decode', help='invert a code back to a permutation')
    p_dec.add_argument('code', help='code (digits or comma-separated)')
    p_dec.add_argument('--family', required=True,
                       help='one of lc,ic,mc,sc')
    p_dec.add_argument('--json', action='store_true')
    p_dec.set_defaults(handler=cmd_decode)

    p_rib = sub.add_parser('ribbon', help='flagged ribbon of a composition')
    p_rib.add_argument('composition', nargs='?',
                       help='composition, e.g. "(2,1,1,2)" or "2112"')
    p_rib.add_argument('--mode', choices=tuple(RIBBON_MODES), default='ie')
    p_rib.add_argument('--all', type=int, metavar='N',
                       help='print the full table for compositions of N')
    p_rib.add_argument('--json', action='store_true')
    p_rib.add_argument('--allow-large', action='store_true')
    p_rib.set_defaults(handler=cmd_ribbon)

    p_ver = sub.add_parser('verify', help='run the verification sweeps')
    p_ver.add_argument('--n', type=int, default=7, help='verify sizes 1..N (default 7)')
    p_ver.add_argument('--checks', default='all',
                       help=f'comma list among {",".join(verify.CHECK_NAMES)} or "all"')
    p_ver.add_argument('--families', default=VERIFY_FAMILIES,
                       help=f'comma list among {VERIFY_FAMILIES}')
    p_ver.add_argument('--workers', type=int, default=_default_workers(),
                       help=f'parallel workers (default ${WORKERS_ENV} or 1)')
    p_ver.add_argument('--json', action='store_true')
    p_ver.add_argument('--allow-large', action='store_true')
    p_ver.set_defaults(handler=cmd_verify)

    p_tree = sub.add_parser('trees', help='tree series, x_n, C_{n-1}, Eulerian')
    p_tree.add_argument('n', type=int)
    p_tree.add_argument('--json', action='store_true')
    p_tree.add_argument('--allow-large', action='store_true')
    p_tree.set_defaults(handler=cmd_trees)

    p_lcl = sub.add_parser('lclass', help='L-equivalence classes')
    p_lcl.add_argument('--perm', help='one permutation')
    p_lcl.add_argument('--n', type=int, help='partition all of S_N')
    p_lcl.add_argument('--json', action='store_true')
    p_lcl.add_argument('--allow-large', action='store_true')
    p_lcl.set_defaults(handler=cmd_lclass)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 2
    except BrokenProcessPool as exc:
        print(f'error: worker pool failed: {exc}', file=sys.stderr)
        return 2


if __name__ == '__main__':
    sys.exit(main())
