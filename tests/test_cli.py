import importlib.metadata
import io
import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from permcodes import cli, codes, ribbons
from permcodes.permutations import compositions_of, parse_permutation
from permcodes.verify import CheckItem, VerificationReport

import cli_pins


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_code_single_permutation(capsys):
    code, out, err = run(capsys, 'code', '531962487')
    assert code == 0
    assert 'sigma: 531962487' in out
    assert 'Lc 420520010  sorted 000012245' in out
    assert 'Sc 745401210  sorted 001124457' in out


def test_code_families_listed_twice_print_once_in_first_order(capsys):
    code, out, err = run(capsys, 'code', '312', '--families', 'mc,maj,MC,sc')
    assert (code, err) == (0, '')
    assert out.splitlines() == ['sigma: 312', 'Mc 010  sorted 001', 'Sc 110  sorted 011']


def test_code_family_selection_and_json(capsys):
    code, out, _ = run(capsys, 'code', '4123', '--families', 'mc', '--json')
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        'perm': '4123',
        'codes': {'majcode': {'code': '0010', 'sorted': '0001'}},
    }


def test_code_table(capsys):
    code, out, _ = run(capsys, 'code', '--table', '4')
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ['sigma', 'Ic', 'Mc', 'Sc'] * 2
    rows = [line for line in lines if line and line[0].isdigit()]
    assert len(rows) == 12  # 24 permutations, two per row
    assert rows[0].split() == ['1234', '0000', '0000', '0000',
                               '4321', '3210', '3210', '3210']


def test_code_table_walks_one_class_per_row_pair(monkeypatch):
    calls = []
    walk = cli.inverse_descent_class

    def counted(comp):
        calls.append(comp)
        return walk(comp)

    monkeypatch.setattr(cli, 'inverse_descent_class', counted)
    cli.code_table_lines(8, cli.TABLE_FAMILIES)
    # the conjugate column is the left class reversed, so only the 2^6
    # classes whose first part is at least 2 are walked
    assert len(calls) == 64


def test_code_table_of_one_letter(capsys):
    assert run(capsys, 'code', '--table', '1') == (0, 'sigma Ic Mc Sc\n\n1 0 0 0\n', '')


def test_code_table_of_no_letters_lists_the_empty_permutation(capsys):
    # one row, as in the JSON table: the empty permutation and its empty codes
    assert run(capsys, 'code', '--table', '0') == (0, 'sigma Ic Mc Sc\n\n   \n', '')


def test_code_past_ten_letters_prints_codes_comma_separated(capsys):
    code, out, _ = run(capsys, 'code', '12,11,10,9,8,7,6,5,4,3,2,1')
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == 'sigma: 12,11,10,9,8,7,6,5,4,3,2,1'
    assert lines[1:] == [
        f'{name} 11,10,9,8,7,6,5,4,3,2,1,0  sorted 0,1,2,3,4,5,6,7,8,9,10,11'
        for name in ('Lc', 'Ic', 'Mc', 'Sc')]


def test_code_table_prints_the_selected_families(capsys):
    code, out, _ = run(capsys, 'code', '--table', '3', '--families', 'mc')
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ['sigma', 'Mc'] * 2
    assert lines[2].split() == ['123', '000', '321', '210']
    code, out, _ = run(capsys, 'code', '--table', '2', '--families', 'sc,lc')
    assert out.splitlines() == ['sigma Sc Lc   sigma Sc Lc', '', '12 00 00   21 10 10']


def test_code_table_json_lists_every_family_in_lexicographic_order(capsys):
    code, out, _ = run(capsys, 'code', '--table', '3', '--json')
    assert code == 0
    payload = json.loads(out)
    perms = [parse_permutation(entry['perm']) for entry in payload]
    assert perms == sorted(perms) and len(perms) == 6
    families = (codes.LEHMER, *codes.FAMILIES.values())
    for p, entry in zip(perms, payload):
        assert set(entry) == {'perm', *(family.name for family in families)}
        for family in families:
            assert entry[family.name] == codes.format_code(family.encode(p))


def test_decode_roundtrip(capsys):
    code, out, _ = run(capsys, 'decode', '501012010', '--family', 'mc')
    assert code == 0
    assert out.strip() == '935721468'
    code, out, _ = run(capsys, 'decode', '0110', '--family', 'sc', '--json')
    assert json.loads(out)['perm'] == '1423'


def test_decode_rejects_bad_code(capsys):
    code, out, err = run(capsys, 'decode', '41', '--family', 'lc')
    assert code == 2
    assert 'error:' in err


def test_unknown_family_is_a_usage_error(capsys):
    code, _, err = run(capsys, 'code', '123', '--families', 'xc')
    assert code == 2
    assert 'unknown code family' in err


def test_verify_rejects_a_family_without_tau(capsys):
    code, out, err = run(capsys, 'verify', '--n', '3', '--families', 'ic,lc')
    assert code == 2
    assert out == ''
    assert err == f"error: unknown family 'lehmer'; choose from {', '.join(codes.FAMILIES)}\n"


@pytest.mark.parametrize('argv, message', cli_pins.USAGE_ERRORS.values(),
                         ids=cli_pins.USAGE_ERRORS)
def test_usage_error_prints_its_message_alone(capsys, argv, message):
    assert run(capsys, *argv) == (2, '', f'error: {message}\n')


def test_ribbon_single_and_modes(capsys):
    for mode in ('ie', 'det'):
        code, out, _ = run(capsys, 'ribbon', '(2,1)', '--mode', mode)
        assert code == 0
        assert out.strip() == '[001] + [011]'
    code, out, _ = run(capsys, 'ribbon', '21', '--mode', 'product')
    assert out.strip() == '[000] + [001] + [011]'


def test_ribbon_all_table(capsys):
    code, out, _ = run(capsys, 'ribbon', '--all', '3')
    assert code == 0
    assert out.splitlines() == [
        'r_3 = [000]',
        'r_21 = [001] + [011]',
        'r_12 = [001] + [002]',
        'r_111 = [012]',
    ]


@pytest.mark.parametrize('extra', ((), ('--json',)), ids=('text', 'json'))
def test_ribbon_all_follows_the_mode(capsys, monkeypatch, extra):
    called = []

    def determinant(comp):
        called.append(comp)
        return ribbons.ribbon_determinant(comp)

    monkeypatch.setitem(cli.RIBBON_MODES, 'det', determinant)
    code, out, _ = run(capsys, 'ribbon', '--all', '4', '--mode', 'det', *extra)
    assert code == 0
    assert called == compositions_of(4)
    assert out == run(capsys, 'ribbon', '--all', '4', *extra)[1]


def test_ribbon_all_product_mode_prints_h_products(capsys):
    code, out, _ = run(capsys, 'ribbon', '--all', '3', '--mode', 'product')
    assert code == 0
    assert out.splitlines() == [
        'h_3 = [000]',
        'h_21 = [000] + [001] + [011]',
        'h_12 = [000] + [001] + [002]',
        'h_111 = [000] + 2 [001] + [002] + [011] + [012]',
    ]


def test_ribbon_json(capsys):
    code, out, _ = run(capsys, 'ribbon', '211', '--json')
    payload = json.loads(out)
    assert payload['composition'] == '(2,1,1)'
    assert {'monomial': '0012', 'coeff': 1} in payload['terms']


def test_ribbon_json_separates_indices_past_nine(capsys):
    code, out, _ = run(capsys, 'ribbon', '1,10', '--json', '--allow-large')
    assert code == 0
    assert json.loads(out)['terms'][-1]['monomial'] == '0,0,0,0,0,0,0,0,0,0,10'


def test_ribbon_takes_a_single_part_above_nine(capsys):
    # `ribbon --all 10` labels this composition r_(10)
    code, out, err = run(capsys, 'ribbon', '(10)', '--allow-large')
    assert (code, out, err) == (0, '[0000000000]\n', '')


def test_ribbon_degree_limit_is_a_usage_error(capsys):
    # a monomial holds degree 255 at most; compact `256` would read as the
    # composition 2,5,6, so the single part is parenthesized
    code, out, err = run(capsys, 'ribbon', '(255)', '--allow-large')
    assert (code, out, err) == (0, '[' + '0' * 255 + ']\n', '')
    code, out, err = run(capsys, 'ribbon', '(256)', '--allow-large')
    assert (code, out) == (2, '')
    assert err.startswith('error: degree 256 reaches 2^8')
    assert 'Traceback' not in err


@pytest.mark.parametrize('argv', [
    ('ribbon', '10,'),
    ('ribbon', '2,,1'),
    ('ribbon', '(2,1'),
    ('code', '3,1,,2'),
    ('decode', '--family', 'ic', '1,,0'),
    # int() reads each of these, but none is written in ASCII digits alone
    ('code', '١٢'),
    ('ribbon', '1_0,2'),
    ('code', '2,0_1'),
    ('ribbon', '+1'),
    ('ribbon', '(+1)'),
])
def test_malformed_lists_quote_the_input_and_the_forms(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ''
    assert f"{argv[-1]!r}: write digits like 2112, or integers separated by " in err
    assert 'Traceback' not in err


@pytest.mark.parametrize('argv, message', [
    (('code', '2,-1'), 'error: not a permutation of 1..2: (2, -1)\n'),
    (('ribbon', '( 2, -1 )'), 'error: composition parts must be positive: (2, -1)\n'),
])
def test_negative_entries_are_read_and_then_refused(capsys, argv, message):
    assert run(capsys, *argv) == (2, '', message)


def test_importing_the_cli_loads_no_process_pool():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, 'PYTHONPATH': str(root / 'src')}
    script = ('import sys, permcodes.cli; '
              'print(sorted(m for m in ("concurrent.futures", "multiprocessing") '
              'if m in sys.modules))')
    proc = subprocess.run([sys.executable, '-c', script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, '[]\n', '')


@pytest.mark.parametrize('argv', [
    ('ribbon', '--all', '8'),
    ('code', '--table', '7'),
], ids=('ribbon-all', 'code-table'))
def test_closed_pipe_exits_2_without_a_traceback(argv):
    # both print far more than a pipe buffers, so the write after the reader
    # has gone fails
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, 'PYTHONPATH': str(root / 'src')}
    proc = subprocess.Popen([sys.executable, '-m', 'permcodes.cli', *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert 'Traceback' not in err, err


def test_verify_text_and_exit_zero(capsys):
    code, out, _ = run(capsys, 'verify', '--n', '4')
    assert code == 0
    assert out.splitlines()[-1].startswith('PASS (')


def test_verify_json_records_config(capsys):
    code, out, _ = run(capsys, 'verify', '--n', '3', '--checks', 'theorem,em',
                       '--families', 'sc', '--json')
    assert code == 0
    payload = json.loads(out)
    assert payload['config']['families'] == ['scode']
    assert payload['config']['n'] == 3
    assert set(payload['config']) == {'subcommand', 'n', 'families', 'output', 'workers'}
    assert payload['report']['passed'] is True
    checks = {item['check'] for item in payload['report']['items']}
    assert checks == {'theorem', 'em'}


def test_verify_failure_exits_one(capsys, monkeypatch):
    bad = VerificationReport.from_items(
        [CheckItem('theorem', 2, 'I=(2)', False, 'synthetic')])
    monkeypatch.setattr(cli.verify, 'run_checks',
                        lambda *args, **kwargs: bad)
    code, out, _ = run(capsys, 'verify', '--n', '2')
    assert code == 1
    assert out.splitlines()[-1] == 'FAIL (1 of 1 checks)'


def test_verify_rejects_unknown_check(capsys):
    code, _, err = run(capsys, 'verify', '--checks', 'nope')
    assert code == 2
    assert 'unknown checks' in err


@pytest.mark.parametrize('argv', [
    ('--n', '3', '--checks', ','),
    ('--n', '3', '--checks', ',', '--families', 'mc'),
    ('--n', '0', '--checks', 'theorem'),
    ('--n', '0'),
    ('--n', '3', '--checks', ''),
])
def test_verify_selection_without_checks_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, 'verify', *argv)
    assert code == 2
    assert out == ''
    assert err.startswith('error: the selection runs no checks')
    assert 'Traceback' not in err


@pytest.mark.parametrize('argv, message', [
    (('--checks', 'ncinv', '--families', 'mc'), "check ncinv needs code family 'invcode'"),
    (('--checks', 'scstep', '--families', 'ic'), "check scstep needs code family 'scode'"),
    (('--checks', 'theorem,ncinv', '--families', 'mc'),
     "check ncinv needs code family 'invcode'"),
], ids=['ncinv-mc', 'scstep-ic', 'theorem,ncinv-mc'])
def test_verify_check_without_its_family_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, 'verify', '--n', '3', *argv)
    assert (code, out, err) == (2, '', f'error: {message}\n')


def test_verify_all_runs_the_checks_the_families_can_run(capsys):
    code, out, _ = run(capsys, 'verify', '--n', '3', '--families', 'mc', '--json')
    assert code == 0
    checks = {item['check'] for item in json.loads(out)['report']['items']}
    assert checks == {'theorem', 'coarse', 'em', 'fs'}


class BrokenPool:
    """A worker pool whose ``map`` raises ``BrokenProcessPool`` when called."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        raise BrokenProcessPool('a worker died')


class BreakingPool(BrokenPool):
    """A worker pool whose ``map`` yields the first task's items and then
    raises, as a real pool's iterator does while the results are read."""

    def map(self, fn, tasks, chunksize=1):
        yield fn(tasks[0])
        raise BrokenProcessPool('a worker died')


def assert_pool_failure_exits_two(capsys, monkeypatch, pool):
    monkeypatch.setattr('concurrent.futures.ProcessPoolExecutor', pool)
    monkeypatch.setattr(cli.verify.os, 'cpu_count', lambda: 2)
    code, out, err = run(capsys, 'verify', '--n', '3', '--workers', '2')
    assert code == 2
    assert out == ''
    assert err == 'error: worker pool failed: a worker died\n'


def test_verify_broken_worker_pool_exits_two(capsys, monkeypatch):
    assert_pool_failure_exits_two(capsys, monkeypatch, BrokenPool)


def test_verify_pool_that_breaks_while_its_results_are_read_exits_two(capsys, monkeypatch):
    assert_pool_failure_exits_two(capsys, monkeypatch, BreakingPool)


def test_verify_cap_requires_acknowledgment(capsys):
    # the CLI's cap is the only one: every path that enumerates checks it
    # before any work, and the library below it takes any n
    for argv in (('code', '--table', '10'), ('ribbon', '--all', '10'),
                 ('ribbon', '1,1,1,1,1,1,1,1,1,1'), ('verify', '--n', '10'),
                 ('trees', '10'), ('lclass', '--n', '10')):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ''), argv
        assert err == ('error: n=10 exceeds the cap 9; pass --allow-large to '
                       'accept the runtime\n'), argv


def test_workers_default_is_one():
    assert cli.build_parser().parse_args(['verify']).workers == 1


@pytest.mark.parametrize('argv', [
    ('code', '312'), ('decode', '010', '--family', 'ic'), ('ribbon', '21'),
    ('verify',), ('trees', '3'), ('lclass', '--n', '3'),
], ids=lambda argv: argv[0])
def test_every_subcommand_takes_json_and_all_but_decode_the_cap(argv):
    parser = cli.build_parser()
    assert parser.parse_args([*argv, '--json']).json
    if argv[0] == 'decode':
        # decode enumerates nothing, so it has no cap to lift
        with pytest.raises(ValueError, match='unrecognized arguments: --allow-large'):
            parser.parse_args([*argv, '--allow-large'])
    else:
        assert parser.parse_args([*argv, '--allow-large']).allow_large


def test_trees_output(capsys):
    code, out, _ = run(capsys, 'trees', '4')
    assert code == 0
    assert 'x_4 = V3*V0^3 + 4*V2*V1*V0^2 + V1^3*V0' in out
    assert 'C_3 = V3 + 4*V2*V1 + V1^3' in out
    assert 'eulerian = q + 4*q^2 + q^3' in out
    assert 'tree series, 4 shapes:' in out


def test_trees_json(capsys):
    code, out, _ = run(capsys, 'trees', '3', '--json')
    payload = json.loads(out)
    assert payload['series'] == [
        {'tree': '(()())', 'coeff': 1},
        {'tree': '((()))', 'coeff': 1},
    ]
    assert payload['x'] == 'V2*V0^2 + V1^2*V0'


@pytest.mark.parametrize('argv', cli_pins.PINS, ids=' '.join)
def test_output_is_pinned(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, cli_pins.sha256(out), err) == (0, cli_pins.PINS[argv], '')


def test_lclass_single_permutation(capsys):
    code, out, _ = run(capsys, 'lclass', '--perm', '31452')
    assert code == 0
    assert 'sorted Lcode 00112' in out
    assert '  24153' in out
    assert 'max 32415' in out
    assert 'min 13542' in out


def test_lclass_single_permutation_json(capsys):
    code, out, _ = run(capsys, 'lclass', '--perm', '31452', '--json')
    assert code == 0
    assert json.loads(out) == {
        'perm': '31452', 'key': '00112', 'max': '32415', 'min': '13542',
        'members': ['13542', '14352', '21543', '23514', '24153', '24315',
                    '31452', '32154', '32415'],
    }


def test_lclass_whole_size_json(capsys):
    code, out, _ = run(capsys, 'lclass', '--n', '4', '--json')
    payload = json.loads(out)
    assert payload['count'] == 14
    assert payload['classes'][0]['members'] == ['1234']


def test_lclass_perm_is_capped_before_the_class_is_closed(capsys, monkeypatch):
    perm = '2,1,3,4,5,6,7,8,9,10'

    def refuse(p):
        raise AssertionError('l_class called above the cap')

    with monkeypatch.context() as patch:
        patch.setattr(cli.lequiv, 'l_class', refuse)
        code, _, err = run(capsys, 'lclass', '--perm', perm)
    assert code == 2
    assert 'allow-large' in err
    code, out, _ = run(capsys, 'lclass', '--perm', perm, '--allow-large')
    assert code == 0
    assert f'class of {perm} (sorted Lcode 0000000001, 9 members)' in out


def test_help_exits_zero_and_shows_the_either_or_group(capsys):
    # --help leaves through exit, not error, so main does not turn it into 2
    with pytest.raises(SystemExit) as exc:
        cli.main(['lclass', '--help'])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert '(--perm PERM | --n N)' in out and err == ''


#: Each command is given one fuzzed argument after its options.
FUZZ_COMMANDS = (
    ('code',),
    *(('decode', '--family', family) for family in ('lc', 'ic', 'mc', 'sc')),
    ('ribbon',),
    ('lclass', '--perm'),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FUZZ_COMMANDS), st.text('0123456789,()- a', max_size=12))
def test_fuzzed_arguments_exit_zero_or_two(command, text):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([*command, text])
    assert code in (0, 2)
    if code == 2:
        assert 'error:' in err.getvalue()


def _declared_scripts(pyproject: Path) -> dict[str, str]:
    """The ``[project.scripts]`` table of ``pyproject``, read line by line
    (Python 3.10 has no ``tomllib``)."""
    scripts, section = {}, None
    for line in pyproject.read_text().splitlines():
        line = line.strip()
        if line.startswith('['):
            section = line
        elif section == '[project.scripts]' and '=' in line:
            name, _, target = line.partition('=')
            scripts[name.strip()] = target.strip().strip('"')
    return scripts


def test_console_entry_point_is_wired():
    try:
        importlib.metadata.distribution('permcodes')
    except importlib.metadata.PackageNotFoundError:
        # not installed: check the declaration the installer would read
        pyproject = Path(__file__).resolve().parents[1] / 'pyproject.toml'
        assert _declared_scripts(pyproject)['permcodes'] == 'permcodes.cli:main'
        return
    scripts = importlib.metadata.entry_points().select(
        group='console_scripts', name='permcodes')
    assert [ep.value for ep in scripts] == ['permcodes.cli:main']
