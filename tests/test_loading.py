"""What the package and each command load, each run in a fresh interpreter:
``verify`` and ``show`` run with the reader and the kernel alone, never with
the stages that built the proof."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cycind
from cycind import formats

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).parent / "data"

MODULES = {f"cycind.{p.stem}" for p in (SRC / "cycind").glob("*.py") if p.stem != "__init__"}
# the command line, the reader and the kernel
BASE = {"cycind", "cycind.cli", "cycind.core", "cycind.formats", "cycind.logic"}


def _fresh(code: str, *argv) -> str:
    """The last line that ``code`` prints, run with ``argv`` in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                         capture_output=True, text=True, timeout=60, check=True).stdout
    return out.splitlines()[-1]


def _loaded_by(*argv) -> set[str]:
    code = ("import json, sys\n"
            "from cycind import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'cycind')]))")
    code, modules = json.loads(_fresh(code, *argv))
    assert code == 0
    return set(modules)


@pytest.fixture(scope="module")
def docs(tmp_path_factory, pipelines):
    p = pipelines["plus"]
    out = tmp_path_factory.mktemp("docs")
    (out / "proof.json").write_text(formats.dumps(formats.proof_to_doc(p.proof, p.system)))
    (out / "calls.json").write_text(formats.dumps(formats.call_system_to_doc(p.cs)))
    return out


@pytest.mark.parametrize("argv, extra", [
    (["verify", "proof.json"], set()),
    (["show", "proof.json"], set()),
    (["sct", "calls.json"], {"cycind.sct"}),
    (["show", "calls.json", "--dot"], {"cycind.dot"}),
], ids=["verify", "show", "sct", "show-dot"])
def test_each_command_loads_what_it_runs(docs, argv, extra):
    assert _loaded_by(*argv[:1], docs / argv[1], *argv[2:]) == BASE | extra


def test_unravel_loads_every_stage_but_dot(tmp_path):
    loaded = _loaded_by("unravel", DATA / "plus.fun", "--out", tmp_path / "proof.json")
    assert loaded == {"cycind"} | MODULES - {"cycind.dot"}


def test_importing_the_package_loads_no_submodule():
    code = "import sys, cycind; print(sorted(m for m in sys.modules if m.startswith('cycind')))"
    assert _fresh(code) == "['cycind']"


def test_star_import_binds_every_name():
    code = "from cycind import *\nimport cycind\nprint(all(n in globals() for n in cycind.__all__))"
    assert _fresh(code) == "True"


def test_import_of_a_module_binds_the_module():
    code = "import cycind.translate as m\nprint(type(m).__name__, m.__name__)"
    assert _fresh(code) == "module cycind.translate"


def test_every_export_is_its_home_modules_object():
    for name in cycind.__all__:
        home = importlib.import_module(f"cycind.{cycind._HOME[name]}")
        assert getattr(cycind, name) is getattr(home, name), name


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nosuch'"):
        cycind.nosuch
    assert not hasattr(cycind, "minimize")
