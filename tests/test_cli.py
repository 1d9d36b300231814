import importlib.metadata
import io
import json
from concurrent.futures.process import BrokenProcessPool
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from permcodes import cli, ribbons
from permcodes.permutations import compositions_of
from permcodes.verify import CheckItem, VerificationReport


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
    assert "code family 'lehmer' has no tau map; verify takes ic,sc,mc" in err


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


@pytest.mark.parametrize('argv', [
    ('code', '312', '--table', '2'),
    ('ribbon', '21', '--all', '2'),
], ids=('code-table', 'ribbon-all'))
def test_argument_beside_a_whole_table_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ''
    assert err.startswith('error: ')


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
    ('--n', '3', '--checks', 'ncinv', '--families', 'mc'),
    ('--n', '3', '--checks', 'scstep', '--families', 'ic'),
    ('--n', '0'),
])
def test_verify_selection_without_checks_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, 'verify', *argv)
    assert code == 2
    assert out == ''
    assert err.startswith('error: the selection runs no checks')
    assert 'Traceback' not in err


def test_verify_broken_worker_pool_exits_two(capsys, monkeypatch):
    class BrokenPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            raise BrokenProcessPool('a worker died')

    monkeypatch.setattr(cli.verify, 'ProcessPoolExecutor', BrokenPool)
    monkeypatch.setattr(cli.verify.os, 'cpu_count', lambda: 2)
    code, out, err = run(capsys, 'verify', '--n', '3', '--workers', '2')
    assert code == 2
    assert out == ''
    assert err == 'error: worker pool failed: a worker died\n'


def test_verify_cap_requires_acknowledgment(capsys):
    code, _, err = run(capsys, 'verify', '--n', '10')
    assert code == 2
    assert 'allow-large' in err


def test_workers_default_comes_from_environment(monkeypatch):
    monkeypatch.setenv(cli.WORKERS_ENV, '5')
    parser = cli.build_parser()
    args = parser.parse_args(['verify'])
    assert args.workers == 5
    monkeypatch.setenv(cli.WORKERS_ENV, 'junk')
    args = cli.build_parser().parse_args(['verify'])
    assert args.workers == 1


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


def test_lclass_single_permutation(capsys):
    code, out, _ = run(capsys, 'lclass', '--perm', '31452')
    assert code == 0
    assert 'sorted Lcode 00112' in out
    assert '  24153' in out
    assert 'max 32415' in out
    assert 'min 13542' in out


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


def test_lclass_requires_exactly_one_mode(capsys):
    assert run(capsys, 'lclass')[0] == 2
    assert run(capsys, 'lclass', '--perm', '21', '--n', '3')[0] == 2


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
        try:
            code = cli.main([*command, text])
        except SystemExit as exc:  # argparse's own usage error
            assert exc.code == 2
            return
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
