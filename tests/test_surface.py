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
- a class member is read by an attribute load of its name or a string key
  of a dict literal naming it.
A quoted annotation reads the names it holds.

These are not readers: the ``__all__`` lists, keyword arguments (a
construction is a write), any other string (a label such as a span name
may spell a function's name without calling it), and ``self.x`` loads
inside a ``__post_init__``, which only validates and normalises the
class's own fields.
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
            if module is not None:
                self.qualified.add((module, node.attr))
            own = self._post_init and isinstance(node.value, ast.Name) and node.value.id == "self"
            if not own:
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


def test_every_public_name_has_a_reader():
    assert set(EXCEPTIONS) <= {"simulator.SEEstimate.discarded"}, "the exception list only shrinks"
    unread = unread_names()
    missing = [name for name in unread if name not in EXCEPTIONS]
    assert not missing, f"public names without a reader: {missing}"
    stale = [name for name in EXCEPTIONS if name not in unread]
    assert not stale, f"listed exceptions that have a reader now: {stale}"
