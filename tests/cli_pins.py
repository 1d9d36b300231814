"""Every pinned output and usage error of the ``permcodes`` command.

``PINS`` maps an argv to the sha256 of the whole stdout it prints, exiting
0 with nothing on stderr; ``LARGE_PINS`` does the same for the runs too
slow for tier-1.  ``USAGE_ERRORS`` maps a test id to an argv and the one
stderr line it prints after ``error: ``, exiting 2 with nothing on stdout.

``tests/test_cli.py`` runs ``PINS`` and ``USAGE_ERRORS`` in process through
``cli.main``.  Run as a script, this module runs every entry through the
``permcodes`` executable on PATH and stops at the first mismatch, naming
the argv, the expected outcome and the actual one::

    python tests/cli_pins.py

Like ``oracles.py``, pytest does not collect it.
"""

import hashlib
import shlex
import subprocess
import sys

PINS = {
    # the same r_I table from both routes
    ('ribbon', '--all', '8', '--mode', 'ie'):
        '4679af86135d3378b42d3fa1a29ecad048ec008e93a2e8bcf39a746497f3285c',
    ('ribbon', '--all', '8', '--mode', 'det'):
        '4679af86135d3378b42d3fa1a29ecad048ec008e93a2e8bcf39a746497f3285c',
    ('ribbon', '--all', '8', '--mode', 'product'):
        'a8d0b41a52c6d2766dcb358e81fdb2ec17701a3907d30cb34112109235d56121',
    ('ribbon', '2112', '--mode', 'product', '--json'):
        '991c7e54eb942ff62e7df91afa7c7bdf107ad63ea47523a8ff4bdea25a656ff2',
    ('trees', '8'):
        'bad6b2c83aeac50cf39d318203dac0bf298167628bb601232a2aff94b4a2cdab',
    ('trees', '8', '--json'):
        'ff0db9ea55d96c07b24f5c12588d5164ad63a28e61adeeea547b7f3bbd9796ea',
    ('code', '--table', '6'):
        '7ad6b48816b8ec4119a9ddfcc6c8e17590e2bfc4b3174bbe6e5c4efc5d916165',
    ('code', '--table', '5', '--json'):
        'c48842e9dfef5be4df6d147aef75c85e020bb4d8e66b9c936a4b8e856637b4e8',
    ('code', '12,11,10,9,8,7,6,5,4,3,2,1', '--json'):
        '9b74db063f8ebeae72c36fbe47605776670837c5bc134775bccb990fd820afdd',
    # all four encoders past n = 9, and back: the four codes of one
    # permutation decode to 8,5,9,6,3,4,1,12,7,2,11,10
    ('code', '8,5,9,6,3,4,1,12,7,2,11,10'):
        '2e49cc6eeb23c4a969ff8b31482d36d30d76e4cc6e96fb7b3db1eee5ac09a638',
    # the zigzag 70,1,69,2,...,36,35: past the 64 letters whose masks the
    # encoders read from tables
    ('code', ','.join(str(v) for k in range(35) for v in (70 - k, 1 + k))):
        '023624412c11726d97d572945465678255fcbed535ff06e37637930ceb9e9de6',
    ('decode', '--family', 'mc', '9,9,2,6,4,4,1,2,2,2,1,0'):
        '74772fec7bf7bebfeba4b145be6766b607cf18a039b9d829c2b1392113d93361',
    ('decode', '--family', 'sc', '9,6,7,7,5,4,1,0,0,2,1,0'):
        '74772fec7bf7bebfeba4b145be6766b607cf18a039b9d829c2b1392113d93361',
    ('decode', '--family', 'ic', '6,8,4,4,1,2,3,0,0,2,1,0'):
        '74772fec7bf7bebfeba4b145be6766b607cf18a039b9d829c2b1392113d93361',
    ('decode', '--family', 'lc', '7,4,6,4,2,2,0,4,1,0,1,0'):
        '74772fec7bf7bebfeba4b145be6766b607cf18a039b9d829c2b1392113d93361',
    # 12,11,10,9,8,7,6,5,4,3,2,1
    ('decode', '--family', 'mc', '11,10,9,8,7,6,5,4,3,2,1,0'):
        '15df63fa804a0b77e3fa152090466023ba99bc5e74393b91f418a5bd3ce2a755',
    ('decode', '--family', 'mc', '501012010', '--json'):
        'ed73e7040b06e80c0b2abb07098862d89aef5e4e59d8a1092d546219b4af8d2d',
    ('lclass', '--n', '6'):
        'fe072caa249c87a8a43510fae8aed029b4fb521f761d1ffe8ce5f566f0c7e4e8',
    ('lclass', '--n', '5', '--json'):
        'a2f793dc6c73782e97825634f83609663ad771d046c2001c409842f8792709e2',
    ('lclass', '--perm', '682547193'):
        '4abadcb2f8ccef6116f08585e23ea01572dd407c4f5937ab9515a78ae9894738',
    ('lclass', '--perm', '682547193', '--json'):
        '6ad3d48ce71d94c1978858b0387648c545a0f24daf7d84fe1d7a88b4f9e37a8c',
    ('verify', '--n', '5'):
        '8f68c6a028b42cbdbee8df28b302fd0742c9a074277e1b546702bdf910ec1ac5',
    ('verify', '--n', '6', '--json'):
        'ec8f236240449f6602f908bcea9ccac20feb861f01f13636561f9f448d726b3a',
    # the pool prints what one process prints
    ('verify', '--n', '6', '--workers', '1'):
        'c5e90ee4bc20b34c6907f00772a3d8dce5a61e45dd18a0e80696b0eda5492597',
    ('verify', '--n', '6', '--workers', '2'):
        'c5e90ee4bc20b34c6907f00772a3d8dce5a61e45dd18a0e80696b0eda5492597',
    ('verify', '--n', '7', '--workers', '1'):
        '535cf0cbc4277813011b71754f4b4e466dea2ee3f954904a91e7b19ead475f98',
    ('verify', '--n', '7', '--workers', '2'):
        '535cf0cbc4277813011b71754f4b4e466dea2ee3f954904a91e7b19ead475f98',
    ('verify', '--n', '8'):
        '21d972ce5aa1fd15052bdcb64c239dd9d437d24123b19e05fd74094f24adaefc',
    # the theorem-n8 bench workload's report (bench/expected.json)
    ('verify', '--n', '8', '--checks', 'theorem'):
        '4135f0b74e2351c44682ae3b6ea06dc332f07c2c033126977e1faec263ccde64',
    # --checks all runs every check whose family is selected: without
    # invcode, ncinv is left out
    ('verify', '--n', '4', '--families', 'sc'):
        '6d12d06b12b74db50451f5e9d0934a267ea532b72704484d7dab90bc3825a56c',
    ('verify', '--n', '4', '--families', 'sc', '--checks', 'theorem,coarse,scstep,em,fs'):
        '6d12d06b12b74db50451f5e9d0934a267ea532b72704484d7dab90bc3825a56c',
}

#: n >= 9, the other --allow-large sizes, the code tables of 8 and 9 and
#: lclass --n 8: too slow for tier-1
LARGE_PINS = {
    ('ribbon', '--all', '9', '--mode', 'ie'):
        'fe5b48d7f169f0787636c87bfc034e48b6bbc2ecb9b30be77f8bd8f3bb35a30e',
    ('ribbon', '--all', '9', '--mode', 'det'):
        'fe5b48d7f169f0787636c87bfc034e48b6bbc2ecb9b30be77f8bd8f3bb35a30e',
    ('ribbon', '--all', '9', '--mode', 'product'):
        '6902c1985da828bce3e246be1424617668010c5710ccdc863ece8c423129b238',
    # the first size whose labels are parenthesized
    ('ribbon', '--all', '10', '--allow-large', '--mode', 'ie'):
        '6dcf15df7da7db21903fe515cd7570725b9f7a7d0de42847f401604ee440b822',
    ('ribbon', '--all', '10', '--allow-large', '--mode', 'det'):
        '6dcf15df7da7db21903fe515cd7570725b9f7a7d0de42847f401604ee440b822',
    ('ribbon', '--all', '10', '--allow-large', '--mode', 'product'):
        'a631c8eb8d03172c46cfbd9d22223bd3ac2d5d36fa6bf09e3bfb2f2bdf398d06',
    ('trees', '10', '--allow-large'):
        'db8b6ee1da80d079b1f5b29f0237456e6c447a1e9cf59c7ec21c01a99965dfc3',
    ('trees', '10', '--allow-large', '--json'):
        '0422a71db30821cf44dd7c79e559ce92897847c3fdf9230e31869c0af4359212',
    ('code', '--table', '8'):
        '9472330fbd3427f23cd5810580bc4d4156ba6d19a944ef0aefdb38ddea389e86',
    # the JSON table also holds the Lehmer code of every row, which the text
    # table leaves out
    ('code', '--table', '8', '--json'):
        '87d8b70bbb8bede0136730f7eea2587831649df41bd3b5a9aab4df53bd320273',
    # the conjugate column is each class read backwards; nothing else checks
    # it at n = 9
    ('code', '--table', '9'):
        '9e294f9c47d52d3130644312ba131548aba1522e7d6ab2f089cc3f268f07a8b4',
    ('lclass', '--n', '8'):
        '8c436058fcf45a6ed2725d7d0b62e0e906bfa49d45589d0c05f1cec2636aa089',
    ('verify', '--n', '9', '--allow-large', '--workers', '2'):
        'a9cf7040e0450163b2606a940021af9108c298bb9589a028ddeff19aefb2e651',
    ('verify', '--n', '10', '--allow-large', '--workers', '2'):
        '64748abcbf430430f7d834bd71106df8fb2881ff8baf27dd46079114aaaaaef4',
}

USAGE_ERRORS = {
    # the library's rules, which the CLI does not repeat
    'verify-workers-0': (('verify', '--n', '3', '--workers', '0'), 'workers must be at least 1'),
    'verify-family-without-tau': (
        ('verify', '--n', '3', '--families', 'lc'),
        "unknown family 'lehmer'; choose from invcode, scode, majcode"),
    'verify-no-checks': (
        ('verify', '--n', '3', '--checks', ''),
        'the selection runs no checks: n must be at least 1 and at least one check named'),
    'trees-0': (('trees', '0'), 'tree series terms start at n=1'),
    'decode-not-sub-diagonal': (('decode', '--family', 'ic', '0,2,0'),
                                'not a sub-diagonal code: (0, 2, 0)'),
    # a monomial holds degree 255 at most
    'ribbon-degree-256': (('ribbon', '(256)', '--allow-large'),
                          'degree 256 reaches 2^8; a monomial holds degree 255 at most'),
    # the CLI's own
    'code': (('code',), 'one of the arguments perm --table is required'),
    'ribbon': (('ribbon',), 'one of the arguments composition --all is required'),
    'decode-two-families': (('decode', '--family', 'ic,mc', '0'),
                            '--family takes exactly one family'),
    'code-no-families': (('code', '--families', ',', '312'), 'no code families selected'),
    'code-table-negative': (('code', '--table', '-1'), 'n must be non-negative'),
    'ribbon-all-negative': (('ribbon', '--all', '-1'), 'n must be non-negative'),
    'lclass-negative': (('lclass', '--n', '-1'), 'n must be non-negative'),
    'lclass-neither': (('lclass',), 'one of the arguments --perm --n is required'),
    'lclass-both': (('lclass', '--perm', '312', '--n', '3'),
                    'argument --n: not allowed with argument --perm'),
    # the parser's rules run before the handler's, so "not both" comes before
    # the cap; the code handler reads the families before the argument
    'code-families-before-argument': (('code', '312', '--families', 'zz'),
                                      "unknown code family 'zz'"),
    'code-both-before-cap': (('code', '312', '--table', '10'),
                             'argument --table: not allowed with argument perm'),
    'ribbon-both-before-cap': (('ribbon', '21', '--all', '10'),
                               'argument --all: not allowed with argument composition'),
    # argparse's own errors take the same path
    'verify-n-not-an-int': (('verify', '--n', 'x'), "argument --n: invalid int value: 'x'"),
    'code-unknown-option': (('code', '312', '--bogus'), 'unrecognized arguments: --bogus'),
    'no-subcommand': ((), 'the following arguments are required: subcommand'),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    """Run every entry through the ``permcodes`` executable; exit with the
    first mismatch."""
    expected = [*((argv, (0, pin, '')) for argv, pin in {**PINS, **LARGE_PINS}.items()),
                *((argv, (2, sha256(''), f'error: {message}\n'))
                  for argv, message in USAGE_ERRORS.values())]
    for argv, want in expected:
        proc = subprocess.run(['permcodes', *argv], capture_output=True, encoding='utf-8')
        got = (proc.returncode, sha256(proc.stdout), proc.stderr)
        command = shlex.join(['permcodes', *argv])
        if got != want:
            sys.exit(f'{command}\n  expected (exit, stdout sha256, stderr) {want!r}\n'
                     f'  actual                                  {got!r}')
        print(f'ok {command}', flush=True)


if __name__ == '__main__':
    main()
