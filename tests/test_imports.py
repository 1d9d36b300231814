"""Static checks of the import statements: the package runs on the standard
library alone, and every module, test and demo uses what it imports at
module level (``__init__.py`` imports to re-export, so it is left out).
And a check that ``src/`` holds no function or class that only the tests
call: those belong in ``tests/oracles.py``; nor a private top-level name
that nothing in ``src/`` reads."""

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


def _named(node: ast.AST) -> set[str]:
    """The identifiers ``node`` names: variables, attributes and imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_public_function_and_class_has_a_caller_outside_the_tests():
    # a caller is anything in src/ outside the definition itself (the
    # package's __init__.py re-exports count), a demo, or the benchmark's
    # tracer, which wraps functions by name
    readers = sorted((ROOT / 'demos').glob('*.py')) + [ROOT / 'bench' / 'tracing.py']
    named = set().union(*(_named(_parse(path)) for path in readers))
    statements = [(path, node, _named(node))
                  for path in PACKAGE for node in _parse(path).body]
    bad = []
    for path, node, _ in statements:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith('_') and node.name not in named
                and not any(node.name in names
                            for _, other, names in statements if other is not node)):
            bad.append(f'{_where(path, node)}: {node.name} is called only by the tests')
    assert not bad


def _bound(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines or assigns."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return []
    return [sub.id for target in targets
            for sub in ast.walk(target) if isinstance(sub, ast.Name)]


def test_every_private_top_level_name_is_read_in_the_package():
    # a private function, class or assigned name that no other top-level
    # statement of src/ names is a leftover; dunders such as __all__ are exempt
    statements = [(path, node, _named(node))
                  for path in PACKAGE for node in _parse(path).body]
    bad = [f'{_where(path, node)}: {name} is never read'
           for path, node, _ in statements for name in _bound(node)
           if name.startswith('_') and not name.startswith('__')
           and not any(name in names for _, other, names in statements if other is not node)]
    assert not bad
