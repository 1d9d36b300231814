"""Command-line front end.

Subcommands: code, decode, ribbon, verify, trees, lclass.  Exit status 0 on
success, 1 when a verification sweep finds a failure, 2 on usage errors.

Each ``cmd_*`` handler returns ``(output, status)``: the JSON payload under
``--json``, the text otherwise, and the exit status.  ``main`` writes the
output to stdout once.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import codes, lequiv, ribbons, trees, verify
from .permutations import (
    compositions_of,
    format_composition,
    format_permutation,
    inverse_descent_class,
    iter_permutations,
    parse_composition,
    parse_permutation,
)
from .polynomials import format_q_polynomial

__all__ = ['main', 'build_parser', 'code_table_lines']

#: The largest size a subcommand enumerates without --allow-large.
SIZE_CAP = 9
#: The text code table's columns when --families is not given.
TABLE_FAMILIES = (codes.INVCODE, codes.MAJCODE, codes.SCODE)

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


def _resolve_families(text: str) -> tuple[codes.CodeFamily, ...]:
    tokens = [token.strip().lower() for token in text.split(',') if token.strip()]
    for token in tokens:
        if token not in FAMILY_ALIASES:
            raise ValueError(f'unknown code family {token!r}')
    if not tokens:
        raise ValueError('no code families selected')
    return tuple(dict.fromkeys(FAMILY_ALIASES[token] for token in tokens))


def _check_cap(n: int, allow_large: bool) -> None:
    if n < 0:
        raise ValueError('n must be non-negative')
    if n > SIZE_CAP and not allow_large:
        raise ValueError(
            f'n={n} exceeds the cap {SIZE_CAP}; pass --allow-large '
            f'to accept the runtime'
        )


# ---------------------------------------------------------------------------
# code


def _label(family: codes.CodeFamily) -> str:
    """Column label of a family: ``Ic``, ``Mc``, ``Sc``, ``Lc``."""
    return family.name[0].upper() + 'c'


def code_table_lines(n: int, families) -> list[str]:
    """The S_n code table: permutations grouped by inverse descent class,
    each class paired with its conjugate in a second column, classes in
    descending lexicographic order of composition, rows lexicographic; one
    code column per family in ``families``.  The conjugate column is the
    left class read backwards.  Below n = 2 there is one class and one
    column."""

    def row(p) -> str:
        return ' '.join((
            format_permutation(p),
            *(codes.format_code(family.encode(p)) for family in families),
        ))

    header = ' '.join(('sigma', *map(_label, families)))
    lines = [header + (f'   {header}' if n >= 2 else '')]
    for comp in [comp for comp in compositions_of(n) if n < 2 or comp[0] >= 2]:
        lines.append('')
        left = sorted(inverse_descent_class(comp))
        if n >= 2:
            # σ ↦ σ·w0 reverses the word and complements Des σ⁻¹
            right = sorted(p[::-1] for p in left)
            for lp, rp in zip(left, right):
                lines.append(f'{row(lp)}   {row(rp)}')
        else:
            lines.extend(row(lp) for lp in left)
    return lines


def cmd_code(args) -> tuple[object, int]:
    if args.families is not None:
        families = _resolve_families(args.families)
    elif args.table is not None and not args.json:
        families = TABLE_FAMILIES
    else:
        families = (codes.LEHMER, *TABLE_FAMILIES)
    if args.table is not None:
        _check_cap(args.table, args.allow_large)
        if args.json:
            return [{'perm': format_permutation(p),
                     **{family.name: codes.format_code(family.encode(p))
                        for family in families}}
                    for p in iter_permutations(args.table)], 0
        return '\n'.join(code_table_lines(args.table, families)), 0
    p = parse_permutation(args.perm)
    encoded = [(family, family.encode(p)) for family in families]
    if args.json:
        return {'perm': format_permutation(p), 'codes': {
            family.name: {'code': codes.format_code(c),
                          'sorted': codes.format_code(codes.sorted_code(c))}
            for family, c in encoded
        }}, 0
    return '\n'.join([f'sigma: {format_permutation(p)}', *(
        f'{_label(family)} {codes.format_code(c)}  '
        f'sorted {codes.format_code(codes.sorted_code(c))}'
        for family, c in encoded
    )]), 0


def cmd_decode(args) -> tuple[object, int]:
    families = _resolve_families(args.family)
    if len(families) != 1:
        raise ValueError('--family takes exactly one family')
    c = codes.parse_code(args.code)
    p = families[0].decode(c)
    if args.json:
        return {
            'code': codes.format_code(c),
            'family': families[0].name,
            'perm': format_permutation(p),
        }, 0
    return format_permutation(p), 0


# ---------------------------------------------------------------------------
# ribbon


def cmd_ribbon(args) -> tuple[object, int]:
    route = RIBBON_MODES[args.mode]
    if args.all is not None:
        _check_cap(args.all, args.allow_large)
        if args.json:
            return [
                {
                    'composition': format_composition(comp),
                    'terms': ribbons.poly_to_json(route(comp)),
                }
                for comp in compositions_of(args.all)
            ], 0
        return '\n'.join(ribbons.ribbon_table_lines(args.all, route)), 0
    comp = parse_composition(args.composition)
    _check_cap(sum(comp), args.allow_large)
    poly = route(comp)
    if args.json:
        return {
            'composition': format_composition(comp),
            'mode': args.mode,
            'terms': ribbons.poly_to_json(poly),
        }, 0
    return ribbons.format_bracket(poly), 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> tuple[object, int]:
    _check_cap(args.n, args.allow_large)
    names = tuple(family.name for family in _resolve_families(args.families))
    selected = None
    if args.checks.strip().lower() != 'all':
        selected = [token.strip().lower() for token in args.checks.split(',')
                    if token.strip()]
    report = verify.run_checks(
        args.n, checks=selected, family_names=names, workers=args.workers
    )
    status = 0 if report.passed else 1
    if args.json:
        config = {'subcommand': 'verify', 'n': args.n, 'families': names,
                  'output': 'json', 'workers': args.workers}
        return {'config': config, 'report': report.to_json()}, status
    return report.render_text(), status


# ---------------------------------------------------------------------------
# trees


def cmd_trees(args) -> tuple[object, int]:
    n = args.n
    _check_cap(n, args.allow_large)
    series = sorted(trees.taylor_tree_series(n).items())
    x_text = trees.format_v_polynomial(trees.x_polynomial(n))
    c_poly = trees.c_polynomial(n - 1)
    c_text = trees.format_v_polynomial(c_poly)
    eulerian = format_q_polynomial(c_poly.q_by_factor_count())
    if args.json:
        return {
            'n': n,
            'series': [
                {'tree': trees.tree_to_text(t), 'coeff': coeff}
                for t, coeff in series
            ],
            'x': x_text,
            'c': c_text,
            'eulerian': eulerian,
        }, 0
    return '\n'.join([
        f'tree series, {len(series)} shapes:',
        *(f'  {coeff} {trees.tree_to_text(t)}' for t, coeff in series),
        f'x_{n} = {x_text}',
        f'C_{n - 1} = {c_text}',
        f'eulerian = {eulerian}',
    ]), 0


# ---------------------------------------------------------------------------
# lclass


def _class_json(cls: lequiv.LClass) -> dict:
    """One class as ``lclass --json`` writes it."""
    return {
        'key': codes.format_code(cls.key),
        'max': format_permutation(cls.max_member),
        'min': format_permutation(cls.min_member),
        'members': [format_permutation(q) for q in cls.members],
    }


def cmd_lclass(args) -> tuple[object, int]:
    if args.perm is not None:
        p = parse_permutation(args.perm)
        _check_cap(len(p), args.allow_large)
        cls = lequiv.l_class(p)
        if args.json:
            return {'perm': format_permutation(p), **_class_json(cls)}, 0
        return '\n'.join([
            f'class of {format_permutation(p)} '
            f'(sorted Lcode {codes.format_code(cls.key)}, {len(cls)} members)',
            *(f'  {format_permutation(q)}' for q in cls.members),
            f'max {format_permutation(cls.max_member)}',
            f'min {format_permutation(cls.min_member)}',
        ]), 0
    _check_cap(args.n, args.allow_large)
    classes = lequiv.l_classes(args.n)
    if args.json:
        return {
            'n': args.n,
            'count': len(classes),
            'classes': [_class_json(cls) for cls in classes],
        }, 0
    return '\n'.join([f'{len(classes)} classes of S_{args.n}', *(
        f'key {codes.format_code(cls.key)} size {len(cls)} '
        f'min {format_permutation(cls.min_member)} '
        f'max {format_permutation(cls.max_member)}'
        for cls in classes
    )]), 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it; --help exits 0 by exit()
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog='permcodes',
        description='Permutation codes, flagged ribbons, tree calculus, and '
                    'exhaustive equidistribution verification.',
    )
    sub = parser.add_subparsers(dest='subcommand', required=True)
    # every subcommand takes --json; all but decode enumerate, so take the cap
    json_option = argparse.ArgumentParser(add_help=False)
    json_option.add_argument('--json', action='store_true')
    enumerating = argparse.ArgumentParser(add_help=False, parents=[json_option])
    enumerating.add_argument('--allow-large', action='store_true')

    p_code = sub.add_parser('code', parents=[enumerating],
                            help='codes of a permutation, or a full table')
    p_code.add_argument('--families',
                        help='comma list among lc,ic,mc,sc (default all four; '
                             'ic,mc,sc for the text table)')
    code_input = p_code.add_mutually_exclusive_group(required=True)
    code_input.add_argument('perm', nargs='?', help='permutation (digits or comma-separated)')
    code_input.add_argument('--table', type=int, metavar='N',
                            help='print the full S_N table (columns Ic, Mc, Sc '
                                 'unless --families is given)')
    p_code.set_defaults(handler=cmd_code)

    p_dec = sub.add_parser('decode', parents=[json_option],
                           help='invert a code back to a permutation')
    p_dec.add_argument('code', help='code (digits or comma-separated)')
    p_dec.add_argument('--family', required=True,
                       help='one of lc,ic,mc,sc')
    p_dec.set_defaults(handler=cmd_decode)

    p_rib = sub.add_parser('ribbon', parents=[enumerating],
                           help='flagged ribbon of a composition')
    p_rib.add_argument('--mode', choices=tuple(RIBBON_MODES), default='ie')
    rib_input = p_rib.add_mutually_exclusive_group(required=True)
    rib_input.add_argument('composition', nargs='?',
                           help='composition, e.g. "(2,1,1,2)" or "2112"')
    rib_input.add_argument('--all', type=int, metavar='N',
                           help='print the full table for compositions of N')
    p_rib.set_defaults(handler=cmd_ribbon)

    p_ver = sub.add_parser('verify', parents=[enumerating],
                           help='run the verification sweeps')
    p_ver.add_argument('--n', type=int, default=7, help='verify sizes 1..N (default 7)')
    p_ver.add_argument('--checks', default='all',
                       help=f'comma list among {",".join(verify.CHECK_NAMES)} or "all"')
    verify_families = ','.join(codes.FAMILIES)
    p_ver.add_argument('--families', default=verify_families,
                       help=f'comma list among {verify_families} (default all)')
    p_ver.add_argument('--workers', type=int, default=1,
                       help='parallel workers (default 1)')
    p_ver.set_defaults(handler=cmd_verify)

    p_tree = sub.add_parser('trees', parents=[enumerating],
                            help='tree series, x_n, C_{n-1}, Eulerian')
    p_tree.add_argument('n', type=int)
    p_tree.set_defaults(handler=cmd_trees)

    p_lcl = sub.add_parser('lclass', parents=[enumerating], help='L-equivalence classes')
    lcl_input = p_lcl.add_mutually_exclusive_group(required=True)
    lcl_input.add_argument('--perm', help='one permutation')
    lcl_input.add_argument('--n', type=int, help='partition all of S_N')
    p_lcl.set_defaults(handler=cmd_lclass)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        output, status = args.handler(args)
        print(json.dumps(output, indent=2) if args.json else output)
    except ValueError as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout; send what is still buffered to devnull so
        # the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return status


if __name__ == '__main__':
    sys.exit(main())
