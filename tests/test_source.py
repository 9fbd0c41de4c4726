"""Properties of the package source itself."""

import ast
import re
from pathlib import Path

import latwist

PACKAGE = Path(latwist.__file__).resolve().parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so an invariant written as one
    # would stop being checked; the package raises instead
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert len(SOURCES) >= 8
    assert found == []


def test_the_package_imports_neither_dataclasses_nor_typing():
    # both cost a classify process milliseconds of start-up (dataclasses
    # loads inspect and execs each record's methods); the records share
    # lattice._Record, and the result tuples are collections.namedtuple
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {module}" for module in modules
                      if module.split(".")[0] in ("dataclasses", "typing")]
    assert found == []


def test_the_package_imports_no_cached_property():
    # functools.cached_property takes a lock on every first read; the
    # records keep their values through lattice._kept, which takes none
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name == "cached_property"]
    assert found == []


def test_no_unused_imports_in_the_package():
    # a name imported but never read is a leftover of deleted code; the
    # package __init__ loads its exports on first use, so it is checked too
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert found == []


def test_every_private_definition_is_referenced_in_the_package():
    # a private module-level function or class that nothing in the
    # package names is a leftover of deleted code; a reference from
    # inside its own body (recursion) does not count.  A dunder such as
    # a module __getattr__ is not private: Python calls it by its name
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    defined = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") and not (node.name.startswith("__") and node.name.endswith("__")):
                defined.append((path, node))
    names = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                names.append((path, node.lineno, node.attr))
    unreferenced = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, node in defined
        if not any(
            name == node.name and not (where == path and node.lineno <= line <= node.end_lineno)
            for where, line, name in names
        )
    ]
    # the walk must see the package's private definitions; a count would
    # fail on the next deletion, so name a few that the package keeps
    assert {"_cremona_reduce", "_walk", "_form_walk"} <= {node.name for _, node in defined}
    assert unreferenced == []


def test_models_are_compared_only_in_check_same_model():
    # every "incompatible lattice models" check goes through
    # lattice._check_same_model, which tests identity before value; the
    # CLI's matrix-file check, with its own message, is the one exception
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) and any(
                isinstance(x, ast.Attribute) and x.attr == "model" for x in operands
            ):
                found.append(f"{path.name}:{ast.unparse(node)}")
    assert found == ["cli.py:M.model != model"]


def test_forms_are_walked_only_through_their_kept_walk():
    # a form keeps its chamber walk (cone._form_walk), so every reader of
    # a form's verdicts or frame walks it once; only _walk_home (a point
    # M rho) and inflation_admissible (a class A) walk what is no form
    callers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for definition in ast.walk(tree):
            if not isinstance(definition, ast.FunctionDef):
                continue
            for node in ast.walk(definition):
                if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == "_walk"
                    or isinstance(node.func, ast.Attribute) and node.func.attr == "_walk"
                ):
                    callers.append(f"{path.name}:{definition.name}")
    assert sorted(callers) == ["cone.py:_form_walk", "cone.py:inflation_admissible", "decompose.py:_walk_home"]


def test_the_library_works_in_k0_below_its_entry_points():
    # a routine that takes a K moves its inputs to K_0 once, by
    # reduction._conjugate_to_k0; no function below it takes K's signs
    found = []
    for path in SOURCES:
        if path.name not in ("cone.py", "reduction.py", "decompose.py"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
                found += [f"{path.name}:{node.name}" for p in params if p is not None and p.arg == "signs"]
    # the walk must see the one function that takes them
    assert found == ["reduction.py:_conjugate_to_k0"]


def test_the_oracle_stays_independent_of_the_library():
    # the oracle decides from the definitions: only crosscheck, which
    # compares the two sides, may read a name imported from reduction,
    # and nothing comes from cone or decompose
    path = next(p for p in SOURCES if p.name == "oracle.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    from_reduction = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # "from .reduction import x" or "from . import reduction"
            modules = [node.module] if node.module else [alias.name for alias in node.names]
            last = {module.split(".")[-1] for module in modules}
            if last & {"cone", "decompose"}:
                found.append(f"oracle.py:{node.lineno} imports from {sorted(last)}")
            if "reduction" in last:
                from_reduction |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found += [f"oracle.py:{node.lineno} imports {alias.name}" for alias in node.names
                      if alias.name.startswith("latwist")]
    assert {"is_exceptional", "is_K_null_spherical"} <= from_reduction
    for definition in tree.body:
        if isinstance(definition, ast.FunctionDef) and definition.name == "crosscheck":
            continue
        found += [
            f"oracle.py:{node.lineno} {node.id}"
            for node in ast.walk(definition)
            if isinstance(node, ast.Name) and node.id in from_reduction
        ]
    assert found == []


def test_decompose_keeps_no_running_matrix():
    # every factorization walks one point home; a reflection applied to
    # a whole matrix would mean a second algorithm beside the walk
    path = next(p for p in SOURCES if p.name == "decompose.py")
    assert "_mat_reflect" not in path.read_text()


def test_every_export_has_a_caller_or_a_readme_line():
    # an exported name that no module of the package, no README code span
    # and no demo names is surface that nothing reaches; a reference from
    # inside the name's own definition does not count
    root = Path(latwist.__file__).resolve().parents[2]
    # fenced blocks first, so that their backticks pair among themselves
    readme_code = " ".join(re.findall(r"```.*?```|`[^`]*`", (root / "README.md").read_text(), re.S))
    demos = sorted((root / "demos").glob("*.py"))
    assert len(demos) >= 7

    def references(path):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.lineno, node.id
            elif isinstance(node, ast.Attribute):
                yield node.lineno, node.attr

    own_lines = {}
    for path in SOURCES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in latwist._EXPORTS:
                own_lines[node.name] = (path, node.lineno, node.end_lineno)
    named = {
        name
        for path in SOURCES
        for line, name in references(path)
        if not (name in own_lines and own_lines[name][0] == path
                and own_lines[name][1] <= line <= own_lines[name][2])
    }
    named |= {name for path in demos for _, name in references(path)}
    unreached = [name for name in latwist._EXPORTS
                 if name not in named and not re.search(rf"\b{name}\b", readme_code)]
    assert unreached == []


def test_records_check_their_arguments_in_init():
    # a record checks its arguments in its own __init__, before it stores
    # them; a separate __post_init__ would be a second place for the rule
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                found += [f"{path.name}:{node.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef) and item.name == "__post_init__"]
    assert found == []


def test_only_the_package_init_assigns_all():
    # the package's _EXPORTS is the one export table; a module's own
    # __all__ would be a second list for nothing to read
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [str(path.relative_to(PACKAGE)) for t in targets
                          if isinstance(t, ast.Name) and t.id == "__all__"]
    assert found == ["__init__.py"]


def test_only_the_record_base_defines_equality_and_hash():
    # every record compares and hashes its fields through lattice._Record;
    # a hand-written pair on one record would be a second copy of the rule
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                found += [f"{path.name}:{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef) and item.name in ("__eq__", "__hash__")]
    assert found == ["lattice.py:_Record.__eq__", "lattice.py:_Record.__hash__"]


def test_the_integer_rule_is_defined_once():
    # lattice._check_int is the one check of an integer argument; no
    # other module keeps a copy of it
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_check_int"]
    assert len(found) == 1 and found[0].startswith("lattice.py:")
