"""Source hygiene.

- Every name a `ghostlet` module imports is used in it. `__init__.py` is
  exempt, because its imports are the package's public names.
- Every defaulted parameter of a `ghostlet` function or method, and every
  defaulted `__init__` field of a `ghostlet` dataclass, is passed by some
  call in `src/` or in the benchmark (`bench/`, its tests excluded). A test
  is no caller, so no option lives on that only tests choose. Nested
  functions and lambdas are exempt: their defaults capture closure values.
  The few exempt options each wait on the ROADMAP item that routes them.
- No frozen dataclass declares a dict, list or set field: freezing such an
  object does not freeze what the field holds.
- Every module-level function, class and constant of a `ghostlet` module is
  reached by a run: from a runner in `experiments._RUNNERS`, from `cli.main`,
  from a module-level statement or from a name the benchmark (`bench/`, its
  tests excluded) uses, through the definitions each one names. A name read
  only as `isinstance`'s class argument reaches nothing: a type test does not
  build the class. A test is no root, so no definition lives on that only
  tests call. The few exempt names each wait on the ROADMAP item that routes
  them into a run.
- Every method and property of a `ghostlet` class, dunders aside, is loaded
  as an attribute somewhere in `src/` or in the benchmark (`bench/`, its
  tests excluded), its own class included, or is named by a benchmark
  string. A test is no caller, so no method lives on that only tests call.
- The three exempt lists only shrink: an exempt name that is now passed,
  reached or loaded, or that is gone, fails its test.
- Every backticked identifier in a `ghostlet` docstring or comment names
  something `src/` defines, reads or imports, so no text points at a name
  that is gone.
- Every field of a `ghostlet` dataclass is read somewhere in `src/` or in
  the benchmark (`bench/`, its tests excluded), its own class's methods
  included, so no field is only written or read only by tests. A class that
  serializes itself with `dataclasses.asdict` reads all its fields.
"""
import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ghostlet"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# The program's own files: `src/` and the benchmark without its tests.
BENCH = sorted(p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))
PROGRAM = sorted([*(ROOT / "src").rglob("*.py"), *BENCH])


def _imported_names(tree: ast.AST) -> dict[str, int]:
    """Bound name -> line of every import in the module (at any depth)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _used_names(tree: ast.AST) -> set[str]:
    """Every name the module reads (attribute chains count by their root)."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def _init_fields(cls: ast.ClassDef):
    """(field, has default) of each `__init__` field of a dataclass, in order:
    `init=False` and `ClassVar` fields are none."""
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            if getattr(keywords.get("init"), "value", True) is False:
                continue
            yield stmt.target.id, "default" in keywords or "default_factory" in keywords
        else:
            yield stmt.target.id, value is not None


def _defaulted_parameters(tree: ast.AST):
    """(owner, function, parameter, positional index or None) for every
    defaulted parameter of a module-level function or a method, and
    (class, "__init__", field, index) for every defaulted `__init__` field
    of a dataclass. The index counts from the first argument a call passes:
    `self`/`cls` of a method, which a call never passes, is dropped."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    for index, (name, default) in enumerate(_init_fields(child)):
                        if default:
                            yield child.name, "__init__", name, index
                yield from walk(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                if owner is not None and not static:
                    positional = positional[1:]
                defaulted = positional[len(positional) - len(args.defaults):]
                for name in defaulted:
                    yield owner, child.name, name, positional.index(name)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield owner, child.name, arg.arg, None

    yield from walk(tree, None)


def _calls() -> dict[str, list[tuple[int, set[str], bool]]]:
    """Called name -> (positional count, keywords, splat) for every call in
    the program's files (`PROGRAM`). A call is known by its bare name
    (`f(...)` or `obj.f(...)`); `*args` or `**kwargs` in it counts as passing
    anything."""
    calls: dict = {}
    for path in PROGRAM:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name is None:
                continue
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            splat = (any(k.arg is None for k in node.keywords)
                     or any(isinstance(a, ast.Starred) for a in node.args))
            calls.setdefault(name, []).append((len(node.args), keywords, splat))
    return calls


# Options no program call sets yet, each with the ROADMAP item that routes or
# removes it. The list only shrinks: an option here that a call now sets, or
# that is gone, fails the test.
_UNSET = {
    "grids.interpolate(method)": "item 1 PR B (the tracer binds it)",
    "transforms.ridgelet(scheme)": "item 1 PR B (the tracer binds it)",
    "grids.QuadratureScheme.kind": "item 1 PR B (the tracer reads it)",
    "nullspace.density_expand(atoms)": "item 3",
    "nullspace.density_synthesize(atoms)": "item 3",
    "cli.main(argv)": "the console-script entry point, which passes no argument",
}


def _option_name(module: str, owner: str | None, func: str, param: str) -> str:
    if func == "__init__" and owner is not None:
        return f"{module}.{owner}.{param}"
    return f"{module}.{owner + '.' if owner else ''}{func}({param})"


def test_every_defaulted_parameter_is_passed_somewhere():
    """Tests are no caller: an option only a test sets is dead code."""
    calls = _calls()
    unset = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, func, param, index in _defaulted_parameters(tree):
            called = owner if func == "__init__" else func
            if not any(splat or param in keywords or (index is not None and count > index)
                       for count, keywords, splat in calls.get(called, ())):
                unset.add(_option_name(path.stem, owner, func, param))
    dead = sorted(unset - set(_UNSET))
    assert not dead, ("defaulted parameters and fields no program call sets (make each "
                      f"the constant it is): {', '.join(dead)}")
    stale = sorted(set(_UNSET) - unset)
    assert not stale, f"exempt options that a call now sets or that are gone: {stale}"


_MUTABLE = {"dict", "list", "set", "Dict", "List", "Set"}


def _is_frozen_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               and any(k.arg == "frozen" and getattr(k.value, "value", False) is True
                       for k in d.keywords)
               for d in cls.decorator_list)


def _mutable_type(node: ast.AST | None) -> bool:
    """Whether an annotation, or a `field(default_factory=...)` default, names
    a dict, list or set (bare, subscripted or as `typing.X`)."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "field":
        return any(k.arg == "default_factory" and _mutable_type(k.value) for k in node.keywords)
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in _MUTABLE


def test_frozen_dataclasses_hold_no_mutable_containers():
    found = []
    for path in MODULES:
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(cls, ast.ClassDef) and _is_frozen_dataclass(cls):
                found += [f"{path.stem}.{cls.name}.{stmt.target.id}" for stmt in cls.body
                          if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                          and (_mutable_type(stmt.annotation) or _mutable_type(stmt.value))]
    assert not found, f"frozen dataclasses with dict/list/set fields: {', '.join(found)}"


def _module_definitions(tree: ast.Module):
    """(name, statement) of every module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _loaded_names(node: ast.AST) -> set[str]:
    """Every name the statement loads, except where it is `isinstance`'s class
    argument: a type test reaches nothing of the class."""
    type_tests = {id(n) for call in ast.walk(node)
                  if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "isinstance"
                  and len(call.args) == 2
                  for n in ast.walk(call.args[1])}
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and id(n) not in type_tests}


def _bench_names() -> set[str]:
    """Every identifier and string constant of the benchmark's own files
    (`bench/test_*.py` excluded): the tracer looks functions up by the
    strings of its `LAYERS` table."""
    names = set()
    for path in BENCH:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


# What a run starts from, besides the module-level statements and the bench.
_ROOTS = (("experiments", "_RUNNERS"), ("cli", "main"))

# Definitions no run reaches yet, each with the ROADMAP item that routes it
# into one. The list only shrinks: a name here that a run reaches, or that is
# gone, fails the test.
_UNREACHED = {
    "nullspace.density_expand": "item 3",
    "nullspace.density_synthesize": "item 3",
    "nullspace._atom_matrix": "item 3",
    "transforms.adjoint": "item 2",
    "profiles.relu_profile": "item 2",
    "finite_models.edge_points": "item 5",
    "fourier._boundary_decay": "item 5",
    "encoding.modulate": "item 13 (encode-series reports the modulated readout)",
}


def _reached() -> tuple[set[str], set[str]]:
    """(every module-level definition, the ones a run reaches), as
    "module.name". Roots: `_ROOTS`, every name a module-level statement reads
    (`os.register_at_fork(...)` included), and every name `_bench_names`
    finds, in any module that defines it. A definition reaches every
    definition its statement names, resolved through its module's own
    definitions and its `from .x import y` imports."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    defs = {(mod, name): node for mod, tree in trees.items()
            for name, node in _module_definitions(tree)}
    imports = {mod: {alias.asname or alias.name: (node.module, alias.name)
                     for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                     for alias in node.names}
               for mod, tree in trees.items()}

    def resolve(mod, name):
        while (mod, name) not in defs and name in imports.get(mod, {}):
            mod, name = imports[mod][name]
        return (mod, name) if (mod, name) in defs else None

    todo = [resolve(mod, name) for mod, name in _ROOTS]
    for mod, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                todo += [resolve(mod, name) for name in _loaded_names(stmt)]
    bench = _bench_names()
    todo += [key for key in defs if key[1] in bench]
    reached = set()
    while todo:
        key = todo.pop()
        if key is None or key in reached:
            continue
        reached.add(key)
        todo += [resolve(key[0], name) for name in _loaded_names(defs[key])]
    return {f"{m}.{n}" for m, n in defs}, {f"{m}.{n}" for m, n in reached}


def test_every_module_definition_is_reached_by_a_run():
    """Tests are no root: a definition only a test calls is dead code."""
    defined, reached = _reached()
    dead = sorted(defined - reached - set(_UNREACHED))
    assert not dead, f"module-level definitions no run, CLI path or bench reaches: {dead}"
    stale = sorted(name for name in _UNREACHED if name in reached or name not in defined)
    assert not stale, f"exempt names that a run now reaches or that are gone: {stale}"


# Methods and properties no program file loads yet, each with the ROADMAP item
# that routes it into a run. The list only shrinks: a name here that the
# program now loads, or that is gone, fails the test.
_UNCALLED = {
    "nullspace.ExpansionCoefficients.partial_parseval": "item 3",
    "nullspace.ExpansionCoefficients.total": "item 3",
}


def _loaded_attributes() -> set[str]:
    """Every attribute name the program's files (`PROGRAM`) load."""
    return {node.attr for path in PROGRAM
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_method_is_loaded_by_the_program():
    """A method or property is used where an attribute of its name is loaded
    in the program's files, or where a benchmark string names it (the tracer
    looks functions up by name). Tests are no caller."""
    used = _loaded_attributes() | {
        node.value for path in BENCH
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    methods = set()
    for path in MODULES:
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(cls, ast.ClassDef):
                methods |= {f"{path.stem}.{cls.name}.{node.name}" for node in cls.body
                            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (node.name.startswith("__") and node.name.endswith("__"))}
    unused = {name for name in methods if name.rsplit(".", 1)[1] not in used}
    dead = sorted(unused - set(_UNCALLED))
    assert not dead, f"methods and properties the program never loads: {', '.join(dead)}"
    stale = sorted(set(_UNCALLED) - unused)
    assert not stale, f"exempt methods that the program now loads or that are gone: {stale}"


def _source_names() -> set[str]:
    """Every name `src/` defines, reads or imports: module names, names,
    attributes, definitions, parameters, keywords and import paths."""
    names = {path.stem for path in PACKAGE.glob("*.py")}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                names.add(node.arg)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
                names.add(node.asname or node.name)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.update(node.module.split("."))
    return names


def _docs(path: Path):
    """(line, text) of every docstring and comment of a module."""
    text = path.read_text()
    for node in ast.walk(ast.parse(text, filename=str(path))):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield getattr(node, "lineno", 1), doc
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.start[0], tok.string


# A dotted identifier, optionally called: `grids.interpolate`, `Spline.each(points)`.
_BACKTICKED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\([^`]*\))?`")
_EXTERNAL = ("np.", "numpy.", "scipy.", "ghostlet.")
# Names the docs may cite that are not Python names of `src/`: a config key
# (read as a string) and an environment variable.
_DOC_ONLY = {"profiles.rho_max_k", "OPENBLAS_NUM_THREADS"}


def test_docs_name_only_what_the_source_has():
    known = _source_names()
    stale = [f"{path.name}:{line} `{name}`"
             for path in sorted(PACKAGE.glob("*.py")) for line, text in _docs(path)
             for name in _BACKTICKED.findall(text)
             if not name.startswith(_EXTERNAL) and name not in _DOC_ONLY
             and not set(name.split(".")) <= known]
    assert not stale, f"docs name what src/ does not define, read or import: {', '.join(stale)}"



def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _serializes_itself(cls: ast.ClassDef) -> bool:
    return any(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "asdict"
               for node in ast.walk(cls))


def test_every_dataclass_field_is_read():
    """A field is read where an attribute of its name is loaded in the
    program's files (`PROGRAM`), its own class's methods included. A test is
    no reader, so no field lives on that only tests read."""
    reads = _loaded_attributes()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)) \
                    or _serializes_itself(cls):
                continue
            unread += [f"{path.stem}.{cls.name}.{stmt.target.id}" for stmt in cls.body
                       if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                       and stmt.target.id not in reads]
    assert not unread, f"dataclass fields the program never reads: {', '.join(unread)}"
