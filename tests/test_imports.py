import ast
from pathlib import Path

import privset


def test_no_module_imports_a_name_it_does_not_use():
    # No linter runs with the tests, so an import that a deletion leaves
    # behind fails here.  A name counts as used if the module reads it
    # anywhere.  Exempt are ``__init__.py`` (the package's exports),
    # ``from __future__`` and statements marked ``# noqa: F401``: the
    # re-exports that callers, perfbench/ among them, look up by module.
    unused = []
    for path in sorted(Path(privset.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
