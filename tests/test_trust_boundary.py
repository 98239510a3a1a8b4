"""The trust boundary of ``src/cycind``, read from the source: the kernel
(``logic``) stands alone, only ``translate`` uses the untrusted builders, only
the command line uses the document formats, and it imports nothing of the
package up front but the reader and the kernel.
Every record but ``SizeChangeGraph`` is built by the ``__init__`` that
``core.Record`` generates."""

import ast
import re
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "cycind"

# every rule builder, the formula helpers only they use, and the strong
# induction macro
BUILDER_NAMES = {
    "fold_imp", "ordered", "gt_ind_hypothesis", "edge_facts",
    "imp_intro", "imp_elim", "forall_intro", "forall_elim", "trans",
    "gt_ind", "c_apply", "assumption", "inst",
    "ind_hypothesis", "ind_prime", "hyp_monotone",
}


def _source(name: str) -> str:
    return (SRC / f"{name}.py").read_text(encoding="utf-8")


def _module_level(tree: ast.Module):
    """The nodes of ``tree`` outside every function and class body."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _imports(name: str, module_level: bool = False) -> set[str]:
    """The modules ``name`` imports, only those at module level if asked;
    modules of this package as ``.module``."""
    out = set()
    tree = ast.parse(_source(name))
    for node in _module_level(tree) if module_level else ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            out |= {f".{a.name}" for a in node.names}  # from . import m
        elif isinstance(node, ast.ImportFrom):
            out.add(f".{node.module}")
    return {f".{m[len('cycind.'):]}" if m.startswith("cycind.") else m for m in out}


def _top_level_names(name: str) -> set[str]:
    out = set()
    for node in ast.parse(_source(name)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.add(node.target.id)
    return out


def test_kernel_imports_only_core_and_the_standard_library():
    imports = _imports("logic")
    assert ".core" in imports
    for m in imports - {".core"}:
        assert not m.startswith(".") and m.split(".")[0] in sys.stdlib_module_names, m


def test_formats_imports_only_core_and_logic_of_the_package():
    # the documents are call systems, derivations and proofs; the annotated
    # representation is shown only as a trace or as dot
    assert {m for m in _imports("formats") if m.startswith(".")} == {".core", ".logic"}


def test_package_namespace_imports_no_module_of_its_own():
    # the re-exports resolve on first use, so ``import cycind`` loads no stage
    assert not {m for m in _imports("__init__") if m.startswith(".")}


def test_cli_loads_only_the_reader_and_the_kernel_up_front():
    # each command imports the other stages where it runs them
    assert {m for m in _imports("cli", module_level=True) if m.startswith(".")} == {
        ".formats", ".core", ".logic"}


def test_kernel_defines_no_builder_or_macro():
    builders = _top_level_names("builders")
    assert BUILDER_NAMES <= builders
    assert not _top_level_names("logic") & (BUILDER_NAMES | builders)


def test_kernel_builds_no_instances():
    # the kernel matches an instance against its pattern; the term maps that
    # build instances are the builders'
    term_maps = {"_map_terms", "open_bound", "close_free", "subst_free"}
    assert term_maps <= _top_level_names("builders")
    assert not _top_level_names("logic") & term_maps


def test_only_the_command_line_imports_the_formats():
    # the pipeline's stages build and check proofs; reading and writing
    # documents is the command line's
    modules = sorted(p.stem for p in SRC.glob("*.py"))
    importers = [m for m in modules if ".formats" in _imports(m)]
    assert importers == ["cli"]


def test_only_translate_imports_the_builders():
    modules = sorted(p.stem for p in SRC.glob("*.py"))
    importers = [m for m in modules if ".builders" in _imports(m)]
    assert importers == ["translate"]


def test_kernel_docstring_states_its_line_count():
    source = _source("logic")
    doc = ast.get_docstring(ast.parse(source))
    m = re.search(r"([\d,]+) lines, with nine rules", doc)
    assert m, "the kernel's docstring states its size next to its rules"
    assert int(m[1].replace(",", "")) == len(source.splitlines())


def test_records_use_the_generated_constructor():
    modules = sorted(p.stem for p in SRC.glob("*.py"))
    trees = {m: ast.parse(_source(m)) for m in modules}
    classes = [c for t in trees.values() for c in ast.walk(t) if isinstance(c, ast.ClassDef)]
    # Record's subclasses, through any chain of bases in the package
    records = {"Record"}
    while more := {c.name for c in classes if c.name not in records
                   and any(isinstance(b, ast.Name) and b.id in records for b in c.bases)}:
        records |= more
    own_init = [c.name for c in classes if c.name in records
                and any(isinstance(f, ast.FunctionDef) and f.name == "__init__" for f in c.body)]
    assert own_init == ["SizeChangeGraph"]
    users = [m for m, t in trees.items()
             if any(isinstance(n, ast.Name) and n.id == "set_field"
                    or isinstance(n, ast.alias) and n.name == "set_field" for n in ast.walk(t))]
    assert users == ["core"]
