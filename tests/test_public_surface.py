"""The package's public surface is what the pipeline and the benchmark use.

A public function, class, method, property or declared field (a dataclass
field, or an annotated self.name in __init__) of convexmorph that no code
under src/convexmorph or perfbench reads, outside its own definition, is
surface kept alive by tests alone. The scan is
syntactic: a module-level name counts as read by a Name or Attribute load,
a member by an Attribute load of its name, and either by a string constant
in perfbench (layers.py fetches the functions it traces with getattr). A
re-export in __init__.py is not a read.

A module-level private function, class or constant (a name with one
leading underscore) that no code there reads, outside its own definition,
is dead: a helper a change left behind. So is a name that a module of the
package imports and never reads (a Name load, annotations included); the
re-exports of __init__.py and the __future__ imports are exempt.
"""

import ast
import importlib
from pathlib import Path

import convexmorph

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "convexmorph"
BENCH = ROOT / "perfbench"

# exempt, each for a stated reason: weights_from_y is no part of convexify
# and only perfbench/layers.py's traced layer reads it (a read today), but
# the tests keep it as the reference whose {(u, v): weight} dict
# tutte_rows_from_y scales until it moves to tests/_oracles.py with the
# exact solver, after the benchmark drops that layer; GraphEdit.label is
# read outside src and perfbench only, and names each graph edit of a
# returned sequence, as MorphStep.provenance names each step
ALLOWED = {"weights_from_y", "GraphEdit.label"}

# member names that more than one public class declares: a read of any of
# them counts for every such class, so the scan cannot tell whether each
# class's own member is read. A new shared name shows up here first.
SHARED = {"start", "end"}

EXPORTS = [
    # the pipeline
    "convexify", "MorphSequence", "MorphStep", "Direction", "Drawing",
    "PlaneGraph", "build_plane_graph_from_points",
    # its errors
    "ConvexifyError", "PostconditionFailed", "ReflexNotRetired",
    "MoveBudgetExceeded", "PocketNotSeparated", "GraphNotRestored",
    "NotPlanarInput", "NotInternallyThreeConnected", "PreconditionViolated",
    "EmbeddingInvalid",
    # the certificates
    "check_unidirectional_planar", "check_convexity_increasing",
    "check_step_bounds", "is_strictly_convex",
    # exact arithmetic
    "rat", "orientation",
]


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = getattr(target, "id", getattr(target, "attr", None))
        if name == "dataclass":
            return True
    return False


def _public(name):
    return not name.startswith("_")


def _declared_fields(init):
    """(name, line) of each public self.name that __init__ annotates."""
    for node in ast.walk(init):
        t = node.target if isinstance(node, ast.AnnAssign) else None
        if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                and t.value.id == "self" and _public(t.attr)):
            yield t.attr, t.lineno


def definitions():
    """(qualified name, file, first line, last line) of every public
    definition in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and _public(node.name):
                out.append((node.name, path, node.lineno, node.end_lineno))
            if not isinstance(node, ast.ClassDef) or not _public(node.name):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    out.append((f"{node.name}.{item.name}", path,
                                item.lineno, item.end_lineno))
                elif (isinstance(item, ast.AnnAssign) and _is_dataclass(node)
                      and isinstance(item.target, ast.Name)
                      and _public(item.target.id)):
                    out.append((f"{node.name}.{item.target.id}", path,
                                item.lineno, item.end_lineno))
                if isinstance(item, ast.FunctionDef) \
                        and item.name == "__init__":
                    out += [(f"{node.name}.{attr}", path, line, line)
                            for attr, line in _declared_fields(item)]
    return out


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_definitions():
    """(name, file, first line, last line) of every module-level private
    function, class and constant of the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            out += [(name, path, node.lineno, node.end_lineno)
                    for name in names if _private(name)]
    return out


def reads():
    """name -> [(file, line)] of every read in the package and perfbench."""
    out = {}
    files = [p for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"] + sorted(BENCH.glob("*.py"))
    for path in files:
        for node in ast.walk(_parse(path)):
            names = ()
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = (node.id,)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                names = ("." + node.attr,)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and path.parent == BENCH):
                # "f" and "Cls.f" as perfbench/layers.py names its layers
                names = (node.value, "." + node.value.split(".")[-1])
            for name in names:
                out.setdefault(name, []).append((path, node.lineno))
    return out


def unread(defs):
    """The definitions of defs that nothing reads outside themselves."""
    seen = reads()
    out = []
    for qual, path, first, last in defs:
        # a member is read as .name, a module-level name also bare
        keys = (("." + qual.split(".")[1],) if "." in qual
                else (qual, "." + qual))
        sites = [s for k in keys for s in seen.get(k, ())]
        if not any(p != path or not first <= line <= last
                   for p, line in sites):
            out.append(f"{path.name}: {qual}")
    return out


def test_every_public_definition_is_read_by_src_or_perfbench():
    assert unread(d for d in definitions()
                  if d[0] not in ALLOWED
                  and d[0].split(".")[0] not in ALLOWED) == []


def test_every_private_module_level_definition_is_read():
    defs = private_definitions()
    assert defs and unread(defs) == []


def unused_imports():
    """module: name for every name a package module imports and never
    loads. An annotation is parsed as an expression whatever the
    __future__ import, so the names it holds are loads too."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        imported, loaded = [], set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                imported += [a.asname or a.name.split(".")[0]
                             for a in node.names]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
        out += [f"{path.name}: {name}" for name in imported
                if name not in loaded]
    return out


def test_every_imported_name_is_read():
    assert unused_imports() == []


def test_shared_member_names_are_the_known_ones():
    classes = {}
    for qual, _, _, _ in definitions():
        if "." in qual:
            cls, member = qual.split(".")
            classes.setdefault(member, set()).add(cls)
    assert {m for m, owners in classes.items() if len(owners) > 1} == SHARED


def test_package_exports_the_pipeline_its_errors_and_certificates():
    assert convexmorph.__all__ == EXPORTS
    for name in EXPORTS:
        assert getattr(convexmorph, name) is not None


def traced_layers():
    """LAYERS of perfbench/layers.py, read from its source."""
    for node in _parse(BENCH / "layers.py").body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/layers.py defines no LAYERS")


def test_every_traced_layer_resolves():
    # the traced bench run (perfbench/run.py --trace 1) rebinds each layer
    # by its module and qualified name, so a rename in the package breaks it
    layers = traced_layers()
    unresolved = []
    for mod, qual, _, _ in layers:
        target = importlib.import_module(f"convexmorph.{mod}")
        for part in qual.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            unresolved.append(f"{mod}.{qual}")
    assert layers and unresolved == []
