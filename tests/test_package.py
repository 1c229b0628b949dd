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


def test_mutant_ledger_texts_occur_once():
    # scripts/mutants.py patches each mutant's old text; a text that is gone
    # or doubled under src/ would leave its mutant unapplied or ambiguous
    import importlib.util

    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("mutants", root / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    sys.modules["mutants"] = mutants
    try:
        spec.loader.exec_module(mutants)
    finally:
        del sys.modules["mutants"]
    sources = {p: p.read_text() for p in (root / "src").rglob("*.py")}
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert (root / m.path) in sources, m.name
        assert sum(text.count(m.old) for text in sources.values()) == 1, m.name
        assert sources[root / m.path].count(m.old) == 1, m.name
        assert m.new != m.old and m.tests, m.name
