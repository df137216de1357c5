"""Every module-level import in src/, tests/ and demos/ is read by its file."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unread_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]  # `import a.b` binds `a`
                if name != "*" and name not in read:
                    unread.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    return unread


def test_every_module_level_import_is_read():
    # the package's __init__.py imports only to re-export
    files = sorted(path for top in ("src", "tests", "demos") for path in (ROOT / top).rglob("*.py")
                   if path.name != "__init__.py")
    assert len(files) > 20
    assert [line for path in files for line in _unread_imports(path)] == []
