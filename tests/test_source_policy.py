import ast
import pathlib

import oscpairs

_DYNAMIC = {"exec", "eval", "compile"}


def test_package_runs_no_generated_code():
    # q is evaluated by walking its tree; the package never builds code at
    # run time, so none of the builtins that run source text appear in it
    root = pathlib.Path(oscpairs.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and node.id in _DYNAMIC:
                found.append(f"{path.name}:{node.lineno} {node.id}")
    assert found == []
