import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import privset
from privset.params import ParamError
from privset.wire import ProtocolFault


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


def test_every_private_helper_is_referenced_beyond_its_definition():
    # A module-level ``_name`` function or class that nothing in the package
    # reads, apart from its own body, is dead code a deletion left behind.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(Path(privset.__file__).parent.glob("*.py"))}

    def names(node) -> Counter:
        return Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        )

    read = sum((names(tree) for tree in trees.values()), Counter())
    orphans = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and read[node.name] == names(node)[node.name]
    ]
    assert orphans == []


def test_the_answer_check_is_written_once():
    # Every decoder refuses out-of-shape answers through one function, the
    # client and psi verify check every answer's id in one function, and the
    # server, the audits and psi verify refuse a body's tag in one function,
    # so a copy of any check cannot drift from it: the range, id and tag
    # messages each appear once in the package, inside one function.
    for text in ("answer symbol outside F_", "does not match query id", "unknown scheme tag"):
        hits = []
        for path in sorted(Path(privset.__file__).parent.glob("*.py")):
            source = path.read_text()
            functions = [
                node for node in ast.walk(ast.parse(source))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            for lineno, line in enumerate(source.splitlines(), 1):
                if text in line:
                    inner = [f.name for f in functions if f.lineno <= lineno <= f.end_lineno]
                    hits.append(f"{path.name}:{lineno} {inner[-1] if inner else '<module>'}")
        assert len(hits) == 1 and not hits[0].endswith("<module>"), hits


def test_a_database_server_grows_no_state_per_frame():
    # A database's answer is a function of the query, the store and the pool,
    # so no method of DatabaseServer adds to what it holds: no call of a
    # growing method, and no ``+=``, on an attribute of ``self``.  A partial
    # lint for the common spellings only (``self.d[k] = v`` or ``.update``
    # pass it): flat memory itself is checked by tracemalloc in
    # test_transport.py::test_a_served_database_keeps_flat_memory_over_many_queries.
    def on_self(node) -> bool:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
            if isinstance(node, ast.Name) and node.id == "self":
                return True
        return False

    tree = ast.parse((Path(privset.__file__).parent / "transport.py").read_text())
    (server,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "DatabaseServer"]
    growth = [
        f"transport.py:{node.lineno}"
        for node in ast.walk(server)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("append", "extend", "insert", "add")
            and on_self(node.func.value)
        )
        or (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add) and on_self(node.target))
    ]
    assert growth == []


def test_the_cli_leaves_the_check_of_a_run_to_the_library():
    # What an honest run looks like on the wire is decided in psi, next to
    # _intersect, which sends it: psi.check_transcript is the one check of a
    # run, and psi verify only loads, checks and prints.  A CLI that reads
    # records itself (any wire parse_* reader) or lays out the run's shape
    # itself (block_scheme, psi_direction_cost) holds a second copy that can drift.
    tree = ast.parse((Path(privset.__file__).parent / "cli.py").read_text())
    names = [
        (node.lineno, alias.asname or alias.name)
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ] + [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "wire"
    ]
    second_copy = [
        f"cli.py:{lineno} {name}" for lineno, name in names
        if name.startswith("parse_") or name in ("block_scheme", "psi_direction_cost")
    ]
    assert second_copy == []


def test_every_package_error_is_a_usage_error_or_a_protocol_fault():
    # cli.main maps faults to exit codes with two except clauses, ValueError
    # (ParamError's root) to 2 and ProtocolFault to 3, so an exception class
    # under neither root would escape it as a traceback.
    strays = []
    for path in sorted(Path(privset.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"privset.{path.stem}")
        strays += [
            f"{path.name} {name}"
            for name, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__ and issubclass(cls, BaseException)
            and not issubclass(cls, (ParamError, ProtocolFault))
        ]
    assert strays == []
