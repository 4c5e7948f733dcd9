"""A guard against dead code in the package, read from its source with ``ast``."""

import ast
from collections import Counter
from pathlib import Path

import lrdetect

PACKAGE = Path(lrdetect.__file__).parent
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def _reads(node) -> Counter:
    """How often each name is read inside ``node``: as a name, an attribute or an imported name."""
    found = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            found[child.id] += 1
        elif isinstance(child, ast.Attribute) and not isinstance(child.ctx, ast.Store):
            found[child.attr] += 1
        elif isinstance(child, ast.alias):
            found[child.name] += 1
    return found


def _imported(node) -> list[str]:
    """The names a module-level import binds; none for ``from __future__``."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names]
    return []


def _defined(node) -> list[str]:
    """The names a module-level def, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]


def test_every_import_is_used_and_every_private_name_is_read():
    everywhere = sum((_reads(tree) for tree in MODULES.values()), Counter())
    unused_imports, unread_names = [], []
    for module, tree in sorted(MODULES.items()):
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if module != "__init__.py":  # its imports are the package's exports
                unused_imports += [f"{module}:{node.lineno} {name}" for name in _imported(node) if name not in loaded]
            own = _reads(node)
            for name in _defined(node):
                if name.startswith("_") and not name.startswith("__") and everywhere[name] == own[name]:
                    unread_names.append(f"{module}:{node.lineno} {name}")
    assert unused_imports == [], "module-level imports never used in their module"
    assert unread_names == [], "module-level private names read nowhere in the package but their definition"
