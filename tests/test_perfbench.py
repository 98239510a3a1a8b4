"""The benchmark's calls into the library, run once on small inputs.

``perfbench/runner.py`` and ``perfbench/run.py`` call the library directly, so
a change to a name or signature they use breaks the benchmark without
breaking any other test.  The runner is compiled from its source, so nothing
is written under ``perfbench/``.
"""

import types
from pathlib import Path

from cycind import build_reset_rep, formats, induced_proof_system

import systems

RUNNER = Path(__file__).resolve().parents[1] / "perfbench" / "runner.py"


def load_runner():
    module = types.ModuleType("perfbench_runner")
    module.__file__ = str(RUNNER)
    exec(compile(RUNNER.read_text(), str(RUNNER), "exec"), module.__dict__)
    return module


def new_result():
    return {"times": {}, "counts": {}}


def test_runner_fuzz_op_on_a_sound_system(tmp_path):
    runner = load_runner()
    ops = runner.Ops(runner.Tracer(True), tmp_path)
    cs = systems.load("plus")
    res = new_result()
    ops.fuzz({"system": formats.call_system_to_doc(cs), "root": "plus"}, res)
    assert res["verdict"] is True and res["conclusion_ok"] is True
    assert res["counts"] == {"closure_size": 3, "unfold_nodes": 3, "replay_nodes": 3,
                             "proof_nodes": 25, "inductions": 1, "doc_rows": 25}
    assert {"unravel", "prove", "verify", "op"} <= set(res["times"])


def test_runner_cli_op_on_plus(tmp_path):
    runner = load_runner()
    ops = runner.Ops(runner.Tracer(False), tmp_path)
    src = tmp_path / "plus.fun"
    src.write_text(systems.TEXTS["plus"])
    res = new_result()
    ops.cli({"id": "plus", "path": str(src), "root": "plus", "sorts": ["Nat", "Nat"]}, res)
    assert res["verdict"] is True and res["conclusion_ok"] is True
    assert res["counts"] == {"closure_size": 3, "unfold_nodes": 3, "replay_nodes": 3,
                             "proof_nodes": 25, "inductions": 1, "doc_rows": 25,
                             "doc_bytes": 3780}
    assert not (tmp_path / "plus.proof.json").exists()


def test_population_draw_unfolds_without_the_soundness_check():
    system, derivs = induced_proof_system(systems.load("plus"))
    rep = build_reset_rep(derivs["plus"], system, check=False)
    assert len(rep.nodes) == 3 and len(rep.buds()) == 1
