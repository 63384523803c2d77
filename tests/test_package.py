"""Package-wide rules checked on the source: the README's imports and exit
codes, no prints, no unused module-level names, no cross-module private reads."""

import ast
import re
from pathlib import Path

import microflow
from microflow import cli, pipeline

SRC = Path(microflow.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_every_module_level_definition_has_a_caller():
    """Each module-level function and class in src/microflow is referenced
    in src/microflow or perfbench/, not only by the tests."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in [*sorted(SRC.rglob("*.py")), *sorted((ROOT / "perfbench").rglob("*.py"))]}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{path.relative_to(SRC).as_posix()}: {node.name}"
              for path, tree in trees.items() if path.is_relative_to(SRC)
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name not in used]
    assert unused == []


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    """Each parameter with a default on a function in src/microflow is passed,
    by keyword, by position or through * or ** unpacking, by some call of that
    name in src/microflow or perfbench/: no option only the tests set. cli.main's
    argv, the console entry point, is exempt."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in [*sorted(SRC.rglob("*.py")), *sorted((ROOT / "perfbench").rglob("*.py"))]}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)

    def passes(call, name, position):
        if any(kw.arg in (name, None) for kw in call.keywords):
            return True
        return position is not None and (len(call.args) > position or any(
            isinstance(arg, ast.Starred) for arg in call.args))

    unpassed = []
    for path, tree in trees.items():
        if not path.is_relative_to(SRC):
            continue
        methods = {id(item) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for item in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            # a method's call sites do not pass self or cls
            bound = id(fn) in methods and not any(
                isinstance(dec, ast.Name) and dec.id == "staticmethod"
                for dec in fn.decorator_list)
            first = len(positional) - len(args.defaults)
            params = [(arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first]
            params += [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                       if default is not None]
            unpassed += [f"{path.relative_to(SRC).as_posix()}: {fn.name}({name})"
                         for name, position in params
                         if not any(passes(call, name, position)
                                    for call in calls.get(fn.name, []))]
    assert unpassed == ["cli.py: main(argv)"]


def test_every_dataclass_field_is_read():
    """Each annotated class field in src/microflow is read as an attribute
    somewhere in src/microflow, perfbench/ or tests/: no write-only state."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for top in (SRC, ROOT / "perfbench", ROOT / "tests")
             for path in sorted(top.rglob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{cls.name}.{item.target.id}"
              for path, tree in trees.items() if path.is_relative_to(SRC)
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for item in cls.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
              and item.target.id not in read]
    assert unread == []


def test_no_module_reads_another_modules_private_names():
    """A single-underscore name is its module's own: no module in src/microflow
    reads one off another name (irls._helper), only off self or cls. What two
    modules share is public, like irls.prepare_input."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=name)):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id not in ("self", "cls")
                    and node.attr.startswith("_") and not node.attr.startswith("__")):
                found.append(f"{name}:{node.lineno} reads {node.value.id}.{node.attr}")
    assert found == []


def test_unfolded_names_no_complex_dtype():
    """irls.prepare_input is the one place a precision is picked: unfolded.py
    names no complex dtype, as an attribute (np.complex128), a name (the
    builtin complex) or a string, so the network runs in what it is handed."""
    complex_dtypes = {"complex", "complex64", "complex128", "complex256", "complex_",
                      "cfloat", "csingle", "cdouble", "clongdouble"}
    path = SRC / "unfolded.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.value if isinstance(node, ast.Constant) else None)
        if isinstance(name, str) and name in complex_dtypes:
            found.append(f"unfolded.py:{node.lineno} names {name}")
    assert found == []


def test_sound_speed_is_written_once():
    """The phantom renders and the velocity estimator reads with one speed of
    sound, casorati.SOUND_SPEED: 1540 appears once as a number in the source."""
    found = [path.relative_to(SRC).as_posix()
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Constant) and type(node.value) in (int, float)
             and node.value == 1540]
    assert found == ["casorati.py"]


def test_matrix_inverse_is_taken_once():
    """The factor updates and the adjoint share one inverse of each Gram
    matrix, irls.gram_inverse: linalg.inv appears only in casorati.py, in
    hermitian_inverse's Cholesky inverse."""
    found = [path.relative_to(SRC).as_posix()
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "inv"
             and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"]
    assert found == ["casorati.py"]


def test_layer_passes_raise_nothing_to_a_power():
    """numpy's generic pow loop costs about three sqrt passes, so the blood
    update, the step loop and the network's adjoint form s = sqrt(|B|^2 + eps)
    and divide by it: these functions call no np.power and use no ** at all,
    their scalars square by multiplication."""
    functions = {"irls.py": {"update_step", "steps", "blood_scale", "blood_shrink"},
                 "unfolded.py": {"_analytic_loss_grad"}}
    found = []
    for name, wanted in functions.items():
        tree = ast.parse((SRC / name).read_text(), filename=name)
        defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert wanted <= defs.keys(), name
        for func in sorted(wanted):
            for node in ast.walk(defs[func]):
                if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)
                        or isinstance(node, ast.Attribute) and node.attr in ("power", "float_power")):
                    found.append(f"{name}:{node.lineno} in {func}")
    assert found == []


def test_documented_exit_codes_match_the_pipeline():
    """README's exit-code table and the cli docstring list STAGE_EXIT_CODES in order."""
    want = list(pipeline.STAGE_EXIT_CODES.items())
    table = re.findall(r"^\| (\d+) +\| (\w+) +\|$", README.read_text(), re.M)
    assert [(stage, int(code)) for code, stage in table] == want
    listed = re.search(r"Exit codes identify the failing stage:(.*?)\.", cli.__doc__, re.S)
    assert [(stage, int(code)) for code, stage in re.findall(r"(\d+) (\w+)", listed[1])] == want
