"""The public surface is consistent: a deletion cannot leave a stale export."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import grpd
import mutants

TESTS = Path(__file__).parent


def grpd_modules():
    return [importlib.import_module(f"grpd.{m.name}")
            for m in pkgutil.iter_modules(grpd.__path__)]


def test_every_name_in_a_module_all_resolves():
    modules = grpd_modules()
    assert len(modules) == 12
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_the_package_imports_only_exported_names():
    tree = ast.parse(Path(grpd.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"grpd.{node.module}")
        unexported = [a.name for a in node.names if a.name not in module.__all__]
        assert unexported == [], module.__name__


def test_no_function_imports_a_module_its_file_imports_at_the_top():
    for path in Path(grpd.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        top = {node.module for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1}
        local = [(node.lineno, node.module) for func in ast.walk(tree)
                 if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(func)
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 and node.module in top]
        assert local == [], path.name


def test_no_assert_statement_in_the_package():
    # invariant checks raise, so ``python -O`` keeps them
    found = [(path.name, node.lineno)
             for path in sorted(Path(grpd.__file__).parent.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_only_the_colimit_and_the_induced_map_descend():
    # every map out of a colimit is read through its cocones by _induced_map
    def descends(node):
        return isinstance(node, ast.Call) and "_descend" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    calls, allowed = [], []
    for path in sorted(Path(grpd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls.extend((path.name, node.lineno) for node in ast.walk(tree) if descends(node))
        allowed.extend((path.name, node.lineno) for func in tree.body
                       if isinstance(func, ast.FunctionDef)
                       and func.name in ("colimit_groupoids", "_induced_map")
                       for node in ast.walk(func) if descends(node))
    assert calls == sorted(allowed)
    assert {name for name, _ in calls} == {"colimit.py"} and len(calls) == 6


def test_only_the_named_functions_read_labels():
    # the builders pass label rules, so a groupoid builds its label strings
    # only when one of these reads them; a new reader has to be added here
    names = {"obj_labels", "mor_labels", "obj_label", "mor_label", "_obj_labels", "_mor_labels"}
    readers = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,))
            else:
                if (isinstance(child, ast.Attribute) and child.attr in names
                        and isinstance(child.ctx, ast.Load)):
                    readers.add(".".join(scope))
                walk(child, scope)

    for path in sorted(Path(grpd.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text()), (path.stem,))
    assert readers == {
        "core.FiniteGroupoid.obj_labels", "core.FiniteGroupoid.mor_labels",
        "core.FiniteGroupoid.obj_label", "core.FiniteGroupoid.mor_label",
        "core._label_rules", "core._label_report", "core.relabel",
        "core.automorphism_group", "jsonio._dump_groupoid", "jsonio.to_dot",
    }


def reached_from_the_cli_and_the_suites():
    """Every top-level name of the package that the ``cli`` module or a
    ``suites.suite_*`` function reaches by name: a ``Name`` or ``Attribute``
    in a reached definition reaches every top-level definition of that name,
    in any module, and so on transitively."""
    defined, roots = {}, []
    for path in sorted(Path(grpd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem == "cli":
            roots.append(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
                if path.stem == "suites" and node.name.startswith("suite_"):
                    roots.append(node)
            elif isinstance(node, ast.Assign):
                names = [t.id for target in node.targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                defined.setdefault(name, []).append(node)
    reached, todo = set(), roots
    while todo:
        node = todo.pop()
        for child in ast.walk(node):
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute) else None)
            if name in defined and name not in reached:
                reached.add(name)
                todo.extend(defined[name])
    return reached


def test_every_public_function_and_class_backs_a_command_or_a_suite():
    # corpus is exempt: its fixtures feed the tests and the bench
    public = [(module.__name__, name) for module in grpd_modules()
              if module.__name__ != "grpd.corpus" for name in module.__all__
              if inspect.isfunction(getattr(module, name))
              or inspect.isclass(getattr(module, name))]
    reached = reached_from_the_cli_and_the_suites()
    assert len(public) > 100
    assert [(module, name) for module, name in public if name not in reached] == []


def test_no_module_imports_a_name_it_never_uses():
    # a package's __init__ imports to re-export
    unused = []
    for path in [*Path(grpd.__file__).parent.glob("*.py"), *TESTS.glob("*.py")]:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.value.id for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
        unused += [(path.name, alias.asname or alias.name.split(".")[0])
                   for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   for alias in node.names if (alias.asname or alias.name.split(".")[0]) not in used
                   and alias.name != "annotations"]
    assert unused == []


def test_the_mutation_catalog_applies_to_the_sources_and_names_tests():
    # each snippet occurs once, and each node id names a test function of
    # its file; ``python tests/mutants.py`` runs the catalog itself
    src = Path(grpd.__file__).parent
    assert len({m.name for m in mutants.CATALOG}) == len(mutants.CATALOG) >= 25
    for m in mutants.CATALOG:
        assert (src / m.file).read_text().count(m.old) == 1 and m.old != m.new, m.name
        for node in m.tests:
            path, _, name = node.partition("::")
            tree = ast.parse((TESTS.parent / path).read_text())
            names = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
            assert name.split("[")[0] in names, (m.name, node)
