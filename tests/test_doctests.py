"""Run the usage examples: the library docstrings, the examples in the test
oracles, the README quickstart and command lines, and the demos; pin the
package's top-level names to what those examples import, and check that
every name a submodule's ``__all__`` lists is defined."""

import ast
import doctest
import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import permcodes
from permcodes import cli, codes, lequiv, permutations, polynomials, ribbons, trees, verify

import oracles

MODULES = [permutations, codes, polynomials, ribbons, trees, lequiv, verify, oracles]
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / 'README.md'
DEMOS = sorted((ROOT / 'demos').glob('*.py'))
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(permcodes.__path__))


@pytest.mark.parametrize('module', MODULES, ids=lambda m: m.__name__.split('.')[-1])
def test_module_doctests_pass(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0


def test_readme_quickstart_passes():
    result = doctest.testfile(str(README), module_relative=False, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0


# the README's "Command line" section: its list of commands, then its sample
# session, each a ```text block
COMMANDS, SESSION = re.findall(
    r'```text\n(.*?)```',
    README.read_text().split('## Command line', 1)[1].split('\n## ', 1)[0], re.S)


@pytest.mark.parametrize('line', [line for line in COMMANDS.splitlines()
                                  if line.startswith('permcodes ')],
                         ids=lambda line: line.split('#')[0].strip())
def test_readme_command_lines_exit_zero(line):
    assert cli.main(shlex.split(line, comments=True)[1:]) == 0


@pytest.mark.parametrize('command', SESSION.split('$ ')[1:],
                         ids=lambda command: command.splitlines()[0])
def test_readme_sample_session_prints_the_lines_shown(capsys, command):
    line, *shown = command.strip().splitlines()
    argv = shlex.split(line)[1:]
    # `| tail -1` shows only the last line printed
    last_only = argv[-3:] == ['|', 'tail', '-1']
    assert cli.main(argv[:-3] if last_only else argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert (printed[-1:] if last_only else printed) == shown


@pytest.mark.parametrize('demo', DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = {**os.environ, 'PYTHONPATH': str(ROOT / 'src')}
    result = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def _names_imported_from_permcodes(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == 'permcodes'
        for alias in node.names
    }


def test_package_exports_what_readme_and_demos_import():
    examples = [example.source for example in
                doctest.DocTestParser().get_examples(README.read_text())]
    imported = _names_imported_from_permcodes(''.join(examples))
    for demo in DEMOS:
        imported |= _names_imported_from_permcodes(demo.read_text())
    exported = {name for name, value in vars(permcodes).items()
                if not name.startswith('_') and not isinstance(value, ModuleType)}
    assert exported == imported


@pytest.mark.parametrize('name', SUBMODULES)
def test_star_import_finds_every_listed_name(name):
    module = importlib.import_module(f'permcodes.{name}')
    # ``from permcodes.<name> import *`` fetches each listed name in turn
    assert [listed for listed in module.__all__ if not hasattr(module, listed)] == []
