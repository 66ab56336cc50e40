import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import oscpairs

ROOT = Path(__file__).resolve().parent.parent


def test_demo_imports_resolve():
    # every demo, including the slow ones not run here, imports only
    # names the package still exports and calls them with arguments
    # their signatures accept
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for path in demos:
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "oscpairs":
                missing = [a.name for a in node.names if not hasattr(oscpairs, a.name)]
                assert not missing, f"{path.name} imports {missing}"
                imported.update(a.name for a in node.names)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in imported):
                sig = inspect.signature(getattr(oscpairs, node.func.id))
                sig.bind(*node.args, **{k.arg: k.value for k in node.keywords})


def test_custom_equations_demo_runs():
    # the parse_q path as users run it: a script against the package
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / "05_custom_equations.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "classification:" in done.stdout
