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


def test_decision_modules_do_not_import_the_oracle():
    # the literal definitions are references for the tests; a check that
    # read one would be compared against itself, and __init__.py holds
    # none of them under a second name
    modules = sorted(path for path in SRC.glob("*.py") if path.name != "oracle.py")
    assert {"__init__.py", "theorems.py"} <= {path.name for path in modules}
    offenders = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            if any("oracle" in name.split(".") for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_library_imports_only_names_it_uses():
    # a name imported and never read is dead weight left by a deletion;
    # __init__.py imports its exports, and __future__ imports are flags
    modules = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
    assert "theorems.py" in [path.name for path in modules]
    offenders = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        offenders += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert offenders == []


def test_oracle_imports_no_function_of_the_decision_modules():
    # a reference that called a fast path would check that path against
    # itself, so the oracle reads only classes and constants of the
    # modules whose functions it is a reference for
    import limhyper.oracle as oracle

    tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    imported = [
        (alias.name, alias.asname or alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("hyperspace", "limitsets", "theorems")
        for alias in node.names
    ]
    assert {"HyperCarrier", "CheckResult"} <= {name for name, _ in imported}
    offenders = []
    for name, bound in imported:
        value = getattr(oracle, bound)
        if callable(value) and not isinstance(value, type):
            offenders.append(name)
    assert offenders == []
