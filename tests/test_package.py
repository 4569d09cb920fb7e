"""The package's export list names what it exports, and its modules import
one another as the design allows."""
import ast
import pathlib

import pasrec


def test_every_exported_name_resolves():
    assert len(set(pasrec.__all__)) == len(pasrec.__all__)
    missing = [name for name in pasrec.__all__ if not hasattr(pasrec, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from pasrec import *", namespace)
    assert set(pasrec.__all__) <= namespace.keys()


def package_imports() -> dict[str, set[str]]:
    """The package modules that each module of ``src/pasrec`` imports, by
    module name, read from its syntax tree."""
    imports = {}
    for path in pathlib.Path(pasrec.__file__).parent.glob("*.py"):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # a relative import is from the package; the names imported
                # may be modules, as in ``from . import oracle``
                base = ".".join(filter(None, ("pasrec" if node.level else None, node.module)))
                modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            names |= {name.split(".")[1] for name in modules if name.startswith("pasrec.")}
        imports[path.stem] = names
    return imports


def test_oracle_shares_no_code_with_the_engine():
    imports = package_imports()
    assert {"oracle", "similarity", "evaluation"} <= imports.keys()
    # the brute-force reference reads the shared domain types only
    assert imports["oracle"] <= {"domain"}
    assert sorted(name for name, used in imports.items() if "oracle" in used) == []
