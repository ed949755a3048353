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


def test_corrupted_structures_are_built_in_one_place():
    # a corrupted environment is a ``Corruption`` record handed to
    # ``CheckEnv.corrupted``: ``theorems.py`` makes a carrier or a table
    # only there and in ``_non_closed_tables``, which that builder calls
    tree = ast.parse((SRC / "theorems.py").read_text(encoding="utf-8"))
    makers = {"HyperCarrier", "HyperTopology"}
    found = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                if name in makers:
                    found.setdefault(owner, set()).add(name)
            visit(child, owner)

    visit(tree, "")
    assert found == {"CheckEnv.corrupted": makers, "_non_closed_tables": {"HyperTopology"}}
