"""The library's public surface is what the CLI, the benchmark and the
scripts read.

Every public name must have a reader in ``src/``, ``perfbench/`` or
``scripts/``.  The names are the package's ``__all__`` (when it has one),
each module's ``__all__``, and the dataclass fields, properties and public
methods of each public class in those lists.

A reader is an AST read:
- a module-level name is read by an import of it from its home module, an
  attribute load on that module (``sim.estimate_se``), a ``Name`` load in
  the home module itself, or a string key of a dict literal naming it in
  another file (perfbench's hook tables patch attributes by name, keyed by
  the attribute);
- a class member is read by an attribute load of its name on anything but
  an imported module (``oracles.gammas`` reads a module-level name, not
  ``AllocationResult.gammas``) or a string key of a dict literal naming it.
A quoted annotation reads the names it holds.

These are not readers: the ``__all__`` lists, keyword arguments (a
construction is a write), any other string (a label such as a span name
may spell a function's name without calling it), and ``self.x`` loads
inside a ``__post_init__``, which only validates and normalises the
class's own fields.

Every defaulted parameter of a public function, of a public class's
constructor and of its public methods must also be passed, by keyword or by
position, by a call in those directories; a setting that nothing outside
``tests/`` sets has no way in.  A call names its callee as a reader names a
module-level name (or, for a method, by its attribute name), and a ``*`` or
``**`` argument passes every parameter it can reach.  A call that hands on a
defaulted parameter of the function it sits in (``strict=strict``) passes
only if some call passes that parameter in turn.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_DIR = ROOT / "src" / "mmudn"
READER_DIRS = ("src", "perfbench", "scripts")

# Public names that have no reader yet -> the ROADMAP item that gives them
# one.  The dict only shrinks.
EXCEPTIONS = {
    "simulator.SEEstimate.discarded": "item 1 Step B: the `discarded` column of the estimate",
}


def _module_names() -> dict[str, Path]:
    """Dotted module name -> file, for every module of the package."""
    names = {"mmudn": PACKAGE_DIR / "__init__.py"}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.stem != "__init__":
            names[f"mmudn.{path.stem}"] = path
    return names


def _short(module: str) -> str:
    return module.removeprefix("mmudn.")


def _public_names(modules: dict[str, Path]) -> tuple[dict[str, tuple[str, str]], dict[str, str]]:
    """(module-level names, class members) to audit: audit name -> (home
    module, name) for the first, audit name -> member name for the second."""
    top, members = {}, {}
    for module in modules:
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", ()):
            top[f"{_short(module)}.{name}"] = (module, name)
            obj = getattr(mod, name)
            if not inspect.isclass(obj) or obj.__module__ != module:
                continue
            owned = [f.name for f in dataclasses.fields(obj)] if dataclasses.is_dataclass(obj) else []
            for attr, value in vars(obj).items():
                if isinstance(value, (property, classmethod, staticmethod)) or inspect.isfunction(value):
                    owned.append(attr)
            for attr in owned:
                if not attr.startswith("_"):
                    members[f"{_short(module)}.{name}.{attr}"] = attr
    return top, members


class _Reads(ast.NodeVisitor):
    """The reads of one file: (module, name) pairs through imports and
    module attributes, bare ``Name`` loads, attribute loads and the string
    keys of dict literals."""

    def __init__(self, path: Path, modules: dict[str, Path]):
        self.modules = modules
        self.package = "mmudn" if path.parent == PACKAGE_DIR else None
        self.aliases: dict[str, str] = {}
        self.qualified: set[tuple[str, str]] = set()
        self.names: set[str] = set()
        self.attrs: set[str] = set()
        self.strings: set[str] = set()
        self._post_init = 0
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            for field in ("annotation", "returns"):
                ann = getattr(node, field, None)
                if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                    # A quoted annotation is a forward reference: it reads the names it holds.
                    setattr(node, field, ast.parse(ann.value, mode="eval").body)
        self.visit(tree)

    def _module_of(self, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module
        if self.package is None:
            return None
        return ".".join(filter(None, (self.package, node.module)))

    def _resolve(self, node) -> str | None:
        """The module a ``Name``/``Attribute`` chain names, if any."""
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._resolve(node.value)
            if base is not None and f"{base}.{node.attr}" in self.modules:
                return f"{base}.{node.attr}"
        return None

    def visit_Import(self, node):
        for alias in node.names:
            if alias.asname:
                self.aliases[alias.asname] = alias.name
            else:
                top = alias.name.split(".")[0]
                self.aliases[top] = top

    def visit_ImportFrom(self, node):
        module = self._module_of(node)
        for alias in node.names:
            self.qualified.add((module, alias.name))
            if f"{module}.{alias.name}" in self.modules:
                self.aliases[alias.asname or alias.name] = f"{module}.{alias.name}"

    def visit_Assign(self, node):
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return
        self.generic_visit(node)

    def visit_FunctionDef(self, node):
        post_init = node.name == "__post_init__"
        self._post_init += post_init
        self.generic_visit(node)
        self._post_init -= post_init

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            module = self._resolve(node.value)
            own = self._post_init and isinstance(node.value, ast.Name) and node.value.id == "self"
            if module is not None:
                self.qualified.add((module, node.attr))
            elif not own:
                self.attrs.add(node.attr)
        self.generic_visit(node)

    def visit_Dict(self, node):
        for key in node.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str) and key.value.isidentifier():
                self.strings.add(key.value)
        self.generic_visit(node)


def unread_names() -> list[str]:
    modules = _module_names()
    home_files = {path: module for module, path in modules.items()}
    top, members = _public_names(modules)
    reads = {
        path: _Reads(path, modules)
        for d in READER_DIRS
        for path in sorted((ROOT / d).rglob("*.py"))
    }

    def top_read(module: str, name: str) -> bool:
        for path, r in reads.items():
            if (module, name) in r.qualified:
                return True
            if home_files.get(path) == module:
                if name in r.names:
                    return True
            elif name in r.strings:
                return True
        return False

    unread = [key for key, (module, name) in top.items() if not top_read(module, name)]
    unread += [
        key for key, attr in members.items() if not any(attr in r.attrs or attr in r.strings for r in reads.values())
    ]
    return sorted(unread)


class _Calls(_Reads):
    """The reads of one file, and its calls: (callee keys, call, enclosing
    functions), a key being (module, qualified name) of a module-level
    function, a class or a method ("Class.method"), and the enclosing
    functions (key, node) pairs from the outermost, whose key is None
    unless the function is a package module's own or its class's."""

    def __init__(self, path: Path, modules: dict[str, Path], methods: dict[str, set]):
        self.module = next((m for m, p in modules.items() if p == path), None)
        self.methods = methods
        self.imported: dict[str, tuple[str, str]] = {}
        self.calls: list[tuple[set, ast.Call, list]] = []
        self._classes: list[str] = []
        self._functions: list[tuple[tuple | None, ast.AST]] = []
        super().__init__(path, modules)

    def visit_ImportFrom(self, node):
        super().visit_ImportFrom(node)
        module = self._module_of(node)
        for alias in node.names:
            self.imported[alias.asname or alias.name] = (module, alias.name)

    def visit_ClassDef(self, node):
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def visit_FunctionDef(self, node):
        key = None
        if self.module is not None and not self._functions:
            key = (self.module, ".".join([*self._classes, node.name]))
        self._functions.append((key, node))
        super().visit_FunctionDef(node)
        self._functions.pop()

    def visit_Lambda(self, node):
        self._functions.append((None, node))
        self.generic_visit(node)
        self._functions.pop()

    def _callees(self, func) -> set:
        if isinstance(func, ast.IfExp):
            return self._callees(func.body) | self._callees(func.orelse)
        if isinstance(func, ast.Name):
            if func.id in self.imported:
                return {self.imported[func.id]}
            return {(self.module, func.id)} if self.module else set()
        if isinstance(func, ast.Attribute):
            module = self._resolve(func.value)
            if module is not None:
                return {(module, func.attr)}
            owner = self._callees(func.value) if isinstance(func.value, ast.Name) else set()
            return {(m, f"{c}.{func.attr}") for m, c in owner} | self.methods.get(func.attr, set())
        return set()

    def visit_Call(self, node):
        self.calls.append((self._callees(node.func), node, list(self._functions)))
        self.generic_visit(node)


def _defaulted(modules: dict[str, Path]):
    """(every function, class and method of the package: key -> (parameter
    names, positional shift, names with defaults), the public keys)."""
    signatures, public = {}, set()
    for module in modules:
        mod = importlib.import_module(module)
        exported = set(getattr(mod, "__all__", ()))
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != module or not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            found = [((module, name), obj, 0)]
            if inspect.isclass(obj):
                for attr, value in vars(obj).items():
                    if isinstance(value, (classmethod, staticmethod)):
                        found.append(((module, f"{name}.{attr}"), value.__func__, 1 if isinstance(value, classmethod) else 0))
                    elif inspect.isfunction(value) and not attr.startswith("__"):
                        found.append(((module, f"{name}.{attr}"), value, 1))
            for key, fn, shift in found:
                try:
                    params = inspect.signature(fn).parameters.values()
                except (TypeError, ValueError):
                    continue
                names = [p.name for p in params]
                defaults = {p.name for p in params if p.default is not inspect.Parameter.empty}
                signatures[key] = (names, shift, defaults)
                if name in exported and not any(part.startswith("_") for part in key[1].split(".")):
                    public.add(key)
    return signatures, public


def _given(call: ast.Call, names: list[str], shift: int):
    """(parameter, value) for each parameter ``call`` passes, the value None
    for those a ``*`` or ``**`` argument passes."""
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            yield from ((name, None) for name in names[i + shift :])
            break
        if i + shift < len(names):
            yield names[i + shift], arg
    for kw in call.keywords:
        if kw.arg:
            yield kw.arg, kw.value
        else:
            yield from ((name, None) for name in names)


def _owner(value, enclosing: list):
    """The key of the innermost enclosing function that has the parameter
    ``value`` names, or None."""
    if not isinstance(value, ast.Name):
        return None
    for key, node in reversed(enclosing):
        if value.id in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}:
            return key
    return None


def unpassed_parameters() -> list[str]:
    modules = _module_names()
    signatures, public = _defaulted(modules)
    methods: dict[str, set] = {}
    for key in signatures:
        if "." in key[1]:
            methods.setdefault(key[1].rsplit(".", 1)[1], set()).add(key)
    passed: set[tuple] = set()
    # (callee key, parameter) -> the (function key, parameter)s handed on to it.
    handed: dict[tuple, set] = {}
    for d in READER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for callees, call, enclosing in _Calls(path, modules, methods).calls:
                for key in callees & signatures.keys():
                    names, shift, defaults = signatures[key]
                    for name, value in _given(call, names, shift):
                        if name not in defaults:
                            continue
                        owner = _owner(value, enclosing)
                        if owner in signatures and value.id in signatures[owner][2]:
                            handed.setdefault((key, name), set()).add((owner, value.id))
                        else:
                            passed.add((key, name))
    grew = True
    while grew:
        grew = False
        for target, sources in handed.items():
            if target not in passed and sources & passed:
                passed.add(target)
                grew = True
    return sorted(
        f"{_short(module)}.{qual}.{name}"
        for (module, qual) in public
        for name in signatures[(module, qual)][2]
        if ((module, qual), name) not in passed
    )


def test_every_public_name_has_a_reader():
    assert set(EXCEPTIONS) <= {"simulator.SEEstimate.discarded"}, "the exception list only shrinks"
    unread = unread_names()
    missing = [name for name in unread if name not in EXCEPTIONS]
    assert not missing, f"public names without a reader: {missing}"
    stale = [name for name in EXCEPTIONS if name not in unread]
    assert not stale, f"listed exceptions that have a reader now: {stale}"


def test_every_defaulted_parameter_is_passed():
    unpassed = unpassed_parameters()
    assert not unpassed, f"defaulted parameters no call outside tests/ passes: {unpassed}"
