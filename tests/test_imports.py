"""Static checks of the import statements: the package runs on the standard
library alone, and every module, test and demo uses what it imports at
module level (``__init__.py`` imports to re-export, so it is left out)."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / 'src' / 'permcodes').glob('*.py'))
CHECKED = [path for path in PACKAGE + sorted((ROOT / 'tests').glob('*.py'))
           + sorted((ROOT / 'demos').glob('*.py')) if path.name != '__init__.py']


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding='utf-8'))


def _where(path: Path, node: ast.stmt) -> str:
    return f'{path.relative_to(ROOT)}:{node.lineno}'


def test_the_package_imports_only_the_standard_library():
    bad = []
    for path in PACKAGE:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            bad += [f'{_where(path, node)}: imports {module}' for module in modules
                    if module.split('.')[0] not in (*sys.stdlib_module_names, 'permcodes')]
    assert not bad


def test_no_module_level_import_goes_unused():
    bad = []
    for path in CHECKED:
        tree = _parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [(alias.asname or alias.name).split('.')[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != '__future__':
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            bad += [f'{_where(path, node)}: {name} is imported but never used'
                    for name in bound if name not in used]
    assert not bad
