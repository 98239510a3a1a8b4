"""List the statements of ``src/cycind`` that the test suite never runs.

Usage, from the repository root::

    python tests/linetrace.py [pytest options]

The script runs pytest in this process under a ``sys.settrace`` line tracer
and prints each statement of the package that no test ran, except those on
``ALLOWED``: internal invariants that no input reaches, each with its reason.
A statement ran when any line of it (of a compound statement, any line of its
header) raised a line event.

``test_demos``, ``test_loading`` and ``test_records`` run the package in new
interpreters with their own ``PYTHONPATH``.  The script wraps
``subprocess.Popen`` so that every child also finds a ``sitecustomize`` that
traces it and writes the lines it ran to a scratch directory at exit.
Those lines count as run, and the report names the statements that only a
child ran.  Tracing makes the suite about five times slower.  The exit status
is 1 when a statement outside the allow-list never ran, else 0.  The file's
name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "cycind"

# (module, first line of the statement, stripped): why no input reaches it
ALLOWED = {
    ("annotate.py", 'raise KeyError(f"no reset on {name!r} at this node")'):
        "cover_of is asked only about a bud's progressing name, which is a reset name",
    ("builders.py", 'raise TypeError(f"not a formula: {phi!r}")'):
        "every formula the translation builds is one of the five formula classes",
    ("cli.py", "sys.exit(main())"):
        "runs only as `python -m cycind.cli`; the console script calls main",
    ("formats.py", 'raise FormatError(f"unknown term {t!r}")'):
        "the writer is given only checked proofs, whose terms are FreeV or BoundV",
    ("formats.py", 'raise FormatError(f"unknown formula {phi!r}")'):
        "the writer is given only checked proofs, whose leaves are atoms and orders",
    ("logic.py", 'raise TypeError(f"not a formula: {phi!r}")'):
        "render_formula is given only formulas of the five classes",
    ("logic.py", 'out = f"not a formula: {f!r}"'):
        "the reader and the builders make sequents of the five formula classes only",
    ("translate.py", 'raise TranslationError(f"progressing name {p!r} on no stack at {nid}")'):
        "a progressing name is a reset name, and a reset name lies on a stack",
    ("translate.py", "raise TranslationError("):
        "a bud lies below its sprout, which adds the hypothesis of the bud's group",
    ("translate.py", 'raise TranslationError(f"hypothesis for {key} not in scope at bud {node.id}")'):
        "after the replay no back-edge crosses an older one, so older hypotheses are in scope",
    ("translate.py", 'raise TranslationError(f"hypothesis for {key} drifted between sprout and bud {node.id}")'):
        "the names up to a progressing name keep their bindings between sprout and bud",
    ("unfold.py", 'raise AssertionError(f"annotation drift at {nid} (unravels {rid})")'):
        "the replay steps the annotations phase one stepped, along the same graphs",
    ("unfold.py", 'raise AssertionError(f"sprout mismatch closing {nid} onto {entry}")'):
        "a landing site is registered by a member of the group, with the group's key",
}

# The tracer of a child interpreter, written as its ``sitecustomize``.  It
# imports only what the interpreter has loaded already, since the tests that
# start children count the modules the package loads.
CHILD = '''\
import atexit, os, sys
_pkg = os.environ["CYCIND_LINETRACE_PKG"]
_out = os.environ["CYCIND_LINETRACE_OUT"]
_hits = set()
_ours = {}
def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local
def _global(frame, event, arg):
    name = frame.f_code.co_filename
    mine = _ours.get(name)
    if mine is None:
        mine = _ours[name] = os.path.realpath(name).startswith(_pkg)
    return _local if mine else None
def _dump():
    sys.settrace(None)
    with open(os.path.join(_out, f"{os.getpid()}.txt"), "w") as f:
        f.writelines(f"{os.path.realpath(p)}\\t{n}\\n" for p, n in _hits)
atexit.register(_dump)
sys.settrace(_global)
'''


def _tracer(hits: set) -> object:
    """A global trace function that records line events under ``PKG``."""
    pkg, ours = str(PKG) + os.sep, {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def glob(frame, event, arg):
        name = frame.f_code.co_filename
        mine = ours.get(name)
        if mine is None:
            mine = ours[name] = os.path.realpath(name).startswith(pkg)
        return local if mine else None

    return glob


def _code_lines(code) -> set[int]:
    """Lines that carry bytecode in ``code`` and the code objects it holds."""
    out = {line for _s, _e, line in code.co_lines() if line is not None}
    for c in code.co_consts:
        if hasattr(c, "co_lines"):
            out |= _code_lines(c)
    return out


def statements(path: Path) -> dict[int, set[int]]:
    """Each statement of ``path`` that carries bytecode, by its first line,
    with the lines it owns: its own lines, or a compound statement's header
    (decorators included), minus those of the statements inside it."""
    src = path.read_text(encoding="utf-8")
    lines = _code_lines(compile(src, str(path), "exec"))
    owner: dict[int, int] = {}
    for node in ast.walk(ast.parse(src)):  # outer statements before inner ones
        if not isinstance(node, (ast.stmt, ast.excepthandler)):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        for line in range(start, end + 1):
            owner[line] = start
    out: dict[int, set[int]] = {}
    for line in lines:
        if line in owner:
            out.setdefault(owner[line], set()).add(line)
    return out


def _unrun(hits: set[tuple[str, int]]) -> dict[tuple[str, int], str]:
    """Each statement of the package whose lines ``hits`` misses, with its
    first line's text."""
    out = {}
    for path in sorted(PKG.glob("*.py")):
        ran = {n for p, n in hits if p == str(path)}
        text = path.read_text(encoding="utf-8").splitlines()
        for start, owned in sorted(statements(path).items()):
            if not owned & ran:
                out[(path.name, start)] = text[start - 1].strip()
    return out


def _run_traced(argv: list[str], scratch: Path) -> tuple[int, set, set, int]:
    """Run pytest with ``argv`` under the tracer: its exit status, the lines
    this process ran, those its children ran, and how many children ran."""
    import pytest

    site, child_out = scratch / "site", scratch / "out"
    site.mkdir()
    child_out.mkdir()
    (site / "sitecustomize.py").write_text(CHILD, encoding="utf-8")
    os.environ["CYCIND_LINETRACE_PKG"] = str(PKG) + os.sep
    os.environ["CYCIND_LINETRACE_OUT"] = str(child_out)
    real_init = subprocess.Popen.__init__

    def init(self, args, *rest, env=None, **kw):
        env = dict(os.environ if env is None else env)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(site), env.get("PYTHONPATH"))))
        real_init(self, args, *rest, env=env, **kw)

    hits: set = set()
    tracer = _tracer(hits)
    subprocess.Popen.__init__ = init
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
        subprocess.Popen.__init__ = real_init
    here = {(os.path.realpath(p), n) for p, n in hits}
    there = set()
    children = list(child_out.glob("*.txt"))
    for f in children:
        for row in f.read_text(encoding="utf-8").splitlines():
            p, n = row.split("\t")
            there.add((p, int(n)))
    return int(status), here, there, len(children)


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory(prefix="linetrace-") as scratch:
        status, here, there, children = _run_traced(argv, Path(scratch))
    unrun = _unrun(here | there)
    only_children = sorted(set(_unrun(here)) - set(unrun))
    shown = {k: t for k, t in unrun.items() if (k[0], t) not in ALLOWED}
    print(f"\npytest exit status {status}")
    for (name, line), t in sorted(unrun.items()):
        mark = "allowed" if (name, t) in ALLOWED else "UNRUN"
        print(f"{mark:8} src/cycind/{name}:{line}  {t}")
    print(f"{len(unrun)} statements never run: {len(unrun) - len(shown)} on the allow-list, {len(shown)} not")
    print(f"{len(only_children)} statements run only in the {children} child interpreters traced:"
          + "".join(f"\n  src/cycind/{name}:{line}" for name, line in only_children))
    stale = set(ALLOWED) - {(k[0], t) for k, t in unrun.items()}
    for name, t in sorted(stale):
        print(f"allow-list entry that ran or is gone: {name}: {t}")
    return 1 if shown else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
