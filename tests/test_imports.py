"""What importing the package loads, checked in fresh interpreters.

Modules load on first use, and a test in this process sees every module
that an earlier test imported, so each check runs in its own
subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import latwist

SRC = Path(latwist.__file__).resolve().parent.parent
LAYERS = ("lattice", "classexpr", "reduction", "cone", "decompose", "oracle", "cli")


def fresh(code):
    """Run ``code`` in a new interpreter that imports latwist from this
    tree, and return what it printed last, read as JSON."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# an expression, for the code run in a fresh interpreter, that lists the
# package's loaded modules
LOADED = 'sorted(m for m in sys.modules if m.split(".")[0] == "latwist")'


def test_bare_import_loads_no_layer():
    assert fresh(f"import json, sys, latwist; print(json.dumps({LOADED}))") == ["latwist"]


def test_every_export_and_layer_resolves_on_a_bare_import():
    out = fresh(f"""
import json, sys, types
import latwist
names = list(latwist.__all__) + {list(LAYERS)!r}
wrong = []
for name in names:
    value = getattr(latwist, name)
    if name in {list(LAYERS)!r}:
        ok = isinstance(value, types.ModuleType) and value is sys.modules["latwist." + name]
    elif name == "__version__":
        ok = isinstance(value, str)
    else:
        ok = getattr(sys.modules[value.__module__], name) is value
    if not ok:
        wrong.append(name)
try:
    latwist.no_such_name
    wrong.append("no_such_name")
except AttributeError:
    pass
print(json.dumps({{"wrong": wrong, "dir": dir(latwist), "all": latwist.__all__}}))
""")
    assert out["wrong"] == []
    assert set(out["all"]) | set(LAYERS) <= set(out["dir"])
    assert len(out["all"]) == len(set(out["all"])) > 40


def test_star_import_binds_exactly_all():
    out = fresh("""
import json
import latwist
namespace = {}
exec("from latwist import *", namespace)
print(json.dumps([sorted(k for k in namespace if k != "__builtins__"), sorted(latwist.__all__)]))
""")
    assert out[0] == out[1]


def test_classify_loads_no_cone_decompose_or_oracle():
    out = fresh(f"""
import contextlib, io, json, sys
import latwist, latwist.cli
codes = []
for argv in (
    ["classify", "--model", "rational:6", "--output", "json", "--", "2H-E1-E2-E3-E4-E5-E6"],
    ["classify", "--model", "rational:8", "5H-2E1-2E2-2E3-2E4-2E5-2E6-E7-E8"],
    ["classify", "--model", "rational:2", "--output", "json", "E7"],
):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(latwist.cli.main(argv))
print(json.dumps([codes, {LOADED}]))
""")
    codes, modules = out
    assert codes == [0, 0, 2]
    assert modules == ["latwist", "latwist.classexpr", "latwist.cli", "latwist.lattice", "latwist.reduction"]


def test_no_layer_or_classify_call_loads_dataclasses_or_inspect():
    # modules loaded before the package, by a site hook say, do not count
    out = fresh(f"""
import contextlib, io, json, sys
before = set(sys.modules)
import latwist, latwist.cli
for layer in {list(LAYERS)!r}:
    getattr(latwist, layer)
with contextlib.redirect_stdout(io.StringIO()):
    code = latwist.cli.main(["classify", "--model", "rational:6", "--", "2H-E1-E2-E3-E4-E5-E6"])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
""")
    code, loaded = out
    assert code == 0 and "latwist.oracle" in loaded
    assert {"dataclasses", "inspect"} & set(loaded) == set()


def test_cone_query_loads_no_decompose_or_oracle():
    out = fresh(f"""
import json, sys
from latwist import LatticeModel, in_cone, parse_form
tau = parse_form("3H-E1-E2-E3", LatticeModel.rational(3))
print(json.dumps([bool(in_cone(tau)), {LOADED}]))
""")
    verdict, modules = out
    assert verdict is True
    assert "latwist.cone" in modules
    assert "latwist.decompose" not in modules and "latwist.oracle" not in modules
