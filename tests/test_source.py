import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "limhyper"


def test_library_has_no_assert_statement():
    # python -O strips assert statements, so no library invariant may rest
    # on one
    modules = sorted(SRC.glob("*.py"))
    assert "theorems.py" in [path.name for path in modules]
    offenders = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert offenders == []


def test_library_imports_no_random_module():
    # every check decides its claim exactly; a seeded sample in the
    # library would report a sampled verdict as an exact one
    modules = sorted(SRC.glob("*.py"))
    assert "theorems.py" in [path.name for path in modules]
    offenders = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "random" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
