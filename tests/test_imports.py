"""No module imports a name it never uses: the guard a linter's F401 would
give, with no linter installed."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKED = ("src/strongedge", "scripts", "tests")


def _unused_imports(path: Path) -> list[str]:
    """The names an import binds in the module at ``path`` that the module
    never reads, less those in its ``__all__`` and those on an import
    marked ``# noqa: F401``."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                if getattr(node, "module", None) != "__future__" and alias.name != "*":
                    # "import a.b" binds a
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in bound.items() if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(p for folder in CHECKED for p in (ROOT / folder).glob("*.py"))
    assert len(paths) > 20
    assert [name for path in paths for name in _unused_imports(path)] == []
