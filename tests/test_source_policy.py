import ast
import pathlib
import sys

import oscpairs

_DYNAMIC = {"exec", "eval", "compile"}


def _package_nodes():
    """(file name, node) for every AST node of the package source."""
    root = pathlib.Path(oscpairs.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_package_runs_no_generated_code():
    # q is evaluated by walking its tree; the package never builds code at
    # run time, so none of the builtins that run source text appear in it
    found = [f"{name}:{node.lineno} {node.id}" for name, node in _package_nodes()
             if isinstance(node, ast.Name) and node.id in _DYNAMIC]
    assert found == []


def test_package_never_prints():
    # library code returns its results; the CLI writes its output
    # through sys.stdout and sys.stderr
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes()
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "print"]
    assert found == []


def test_package_does_not_import_scipy():
    # numpy is the only runtime dependency; scipy serves tests as an oracle
    found = []
    for name, node in _package_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        found += [f"{name}:{node.lineno} {m}" for m in modules
                  if m.split(".")[0] == "scipy"]
    assert found == []


def test_qfunc_alone_builds_models_and_names_a_fault_of_q():
    # every model comes from qfunc, and qfunc.require_finite is the one
    # check that refuses a q that is not finite
    built, refused = [], []
    for name, node in _package_nodes():
        if name == "qfunc.py":
            continue
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "EquationModel"):
            built.append(f"{name}:{node.lineno}")
        if isinstance(node, ast.Raise):
            refused += [f"{name}:{node.lineno}" for part in ast.walk(node)
                        if isinstance(part, ast.Constant) and isinstance(part.value, str)
                        and "is not finite" in part.value]
    assert built == [] and refused == []


def test_specfun_is_a_leaf_without_module_state():
    # the Bessel oracle checks the integrator and the pipeline, so it runs
    # none of their code, and it keeps no cache between calls
    path = pathlib.Path(oscpairs.__file__).parent / "specfun.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imported, state = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            if (isinstance(value, (ast.Dict, ast.List, ast.DictComp, ast.ListComp))
                    or isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                    and value.func.id in ("dict", "list")):
                state.append(node.lineno)
    assert [m for m in imported if m != ".errors"
            and m.split(".")[0] not in sys.stdlib_module_names] == []
    assert state == []


def test_integrate_alone_evaluates_the_hermite_basis():
    # the order-7 basis and its contraction stay inside integrate: other
    # modules read the dense output through PairTrajectory and the phase
    # quadrature's fixed _panel_table
    basis = {"_basis", "_signed_basis", "_contract", "_TAILS"}
    found = []
    for name, node in _package_nodes():
        if name == "integrate.py":
            continue
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name, node.asname]
        else:
            continue
        found += [f"{name}:{node.lineno} {n}" for n in names if n in basis]
    assert found == []
