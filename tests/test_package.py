"""The package namespace: `import sqreparam` loads no module, and each
public name loads its home module on first use.

Each test runs in a fresh `python -B` process, which starts with no
sqreparam module loaded and writes no bytecode under src/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the sqreparam modules the fresh process has loaded
LOADED = "sorted(m for m in sys.modules if m.startswith('sqreparam.'))"


def _fresh(code):
    """What `code`, run in a fresh interpreter that imports sqreparam
    from this checkout, prints as JSON."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-B", "-c", "import json, sys\n" + code],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_loads_no_module():
    loaded, listed = _fresh(
        "import sqreparam as sq\n"
        f"loaded = {LOADED}\n"
        "dir(sq)\n"
        f"print(json.dumps([loaded, {LOADED}]))")
    assert loaded == []
    assert listed == []         # dir() loads nothing either


def test_lp_solve_loads_errors_and_polyhedra_alone():
    loaded, home, copied, rebound = _fresh(
        "import sqreparam as sq\n"
        "sq.lp_solve([1.0], A_ineq=[[-1.0]], b_ineq=[0.0])\n"
        f"loaded = {LOADED}\n"
        "home = sq.lp_solve.__module__\n"
        "sq.polyhedra.lp_solve = 'rebound'\n"
        "print(json.dumps([loaded, home, 'lp_solve' in vars(sq),\n"
        "                  sq.lp_solve]))")
    assert loaded == ["sqreparam.errors", "sqreparam.polyhedra"]
    assert home == "sqreparam.polyhedra"
    # never copied here: a rebinding in the home module is what is read
    assert copied is False
    assert rebound == "rebound"


def test_every_public_name_is_its_home_module_object():
    """A name added to the table that its module does not define, or
    that the module only imports, fails; so does a name the module no
    longer defines."""
    names, wrong, modules = _fresh(
        "import importlib, types\n"
        "import sqreparam as sq\n"
        "wrong = []\n"
        "for name in sq.__all__:\n"
        "    home = importlib.import_module(sq._HOME[name])\n"
        "    obj = getattr(sq, name)\n"
        "    defined = (obj.__module__\n"
        "               if isinstance(obj, (type, types.FunctionType))\n"
        "               else home.__name__)\n"
        "    if obj is not vars(home).get(name) or defined != home.__name__:\n"
        "        wrong.append(name)\n"
        "modules = [n for n in sq.__all__\n"
        "           if isinstance(getattr(sq, n), types.ModuleType)]\n"
        "print(json.dumps([sq.__all__, wrong, modules]))")
    assert wrong == []
    assert modules == []
    assert len(names) == 68 and names == sorted(set(names))


def test_dir_covers_all_and_the_submodules():
    names, public, module = _fresh(
        "import sqreparam as sq\n"
        "print(json.dumps([dir(sq), sq.__all__, sq.kl_lab.__name__]))")
    assert set(public) <= set(names)
    assert {"checks", "cli", "kl_lab", "oracles", "polyhedra"} <= set(names)
    assert module == "sqreparam.kl_lab"


def test_an_unknown_name_raises_attribute_error():
    raised, has, loaded = _fresh(
        "import sqreparam as sq\n"
        "try:\n"
        "    sq.no_such_name\n"
        "except AttributeError as exc:\n"
        "    raised = str(exc)\n"
        f"print(json.dumps([raised, hasattr(sq, 'lp_solver'), {LOADED}]))")
    assert raised == "module 'sqreparam' has no attribute 'no_such_name'"
    assert has is False
    assert loaded == []


def test_the_cli_loads_the_batteries_only_for_selftest():
    problem = str(ROOT / "problems" / "orthant2.json")
    loaded = _fresh(
        "import contextlib, io\n"
        "from sqreparam.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['certify', {problem!r}, '--y', '0,0']) == 0\n"
        f"print(json.dumps({LOADED}))")
    assert loaded == ["sqreparam.cli", "sqreparam.errors", "sqreparam.kl_lab",
                      "sqreparam.polyfunc", "sqreparam.polyhedra",
                      "sqreparam.reparam", "sqreparam.second_order"]
