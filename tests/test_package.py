"""Package-wide rules checked on the source: the README's imports, no prints."""

import ast
import re
from pathlib import Path

import microflow

SRC = Path(microflow.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_imports_resolve():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    imports = [node for block in blocks for node in ast.parse(block).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert any(isinstance(node, ast.ImportFrom)
               and node.module.startswith("microflow") for node in imports)
    exec(compile(ast.Module(body=imports, type_ignores=[]), str(README),
                 "exec"), {})


def test_no_verbose_parameter_and_only_the_cli_prints():
    """Progress goes through module loggers; only cli.py writes to streams."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                params = node.args.posonlyargs + node.args.args \
                    + node.args.kwonlyargs
                if "verbose" in [p.arg for p in params]:
                    found.append(f"{name}:{node.lineno} takes verbose")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "print" and name != "cli.py"):
                found.append(f"{name}:{node.lineno} calls print")
    assert found == []
