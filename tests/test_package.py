import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import freecomm


def test_public_names_are_sorted_unique_and_resolve():
    names = freecomm.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(freecomm, name) is not None


def test_cli_imports_no_optional_dependency():
    # numpy is the one runtime dependency: importing the CLI, and with it the
    # whole package, leaves no scipy, sympy or hypothesis module loaded
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(freecomm.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    script = (
        "import sys\n"
        "import freecomm.cli\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'sympy', 'hypothesis'}))\n"
    )
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_modules_import_no_private_name_of_another():
    # each module's underscore names are its own: a relative import may
    # bring in a dunder such as ``__version__``, never a name such as ``_PAD``
    found = []
    for path in sorted(Path(freecomm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [(path.name, node.module, a.name) for a in node.names
                          if a.name.startswith("_") and not a.name.endswith("__")]
    assert found == []


def test_matrices_owns_the_unitarity_gate():
    # ``matrices.check_unitary`` is the one test of a dense unitary: no other
    # module reads the defect or its tolerance, and ``ell_op`` has no knob
    owned = {"unitarity_defect", "UNITARY_OP_TOL"}
    found = []
    for path in sorted(Path(freecomm.__file__).parent.glob("*.py")):
        if path.name == "matrices.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in owned:
                found.append((path.name, name))
    assert found == []
    assert list(inspect.signature(freecomm.discrete.ell_op).parameters) == ["u"]
