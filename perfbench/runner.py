"""In-process runner for the benchmark: one child process, many operations.

Usage (started by ``run.py``)::

    python3 perfbench/runner.py JOB.json

The job file names the operations and where in the list to start, the
memory budget in MB (applied to this process as ``RLIMIT_AS`` before
``cycind`` is imported), the wall-time budget of one operation, and whether to
record spans.  The runner makes one pass over the operations and prints one
JSON line per finished operation, so a parent that loses the runner still has
every result before the loss.  Each pass gets a fresh runner: state that the
program keeps between calls (the kernel's formula cache grows with every
proof checked) would otherwise make later passes slower than earlier ones.

Two kinds of operation exist:

- ``fuzz``: one call-system document taken to a verdict through the library
  and, when sound, to a kernel-checked proof; no documents are written;
- ``cli``: the call sequence of ``cycind unravel`` followed by ``cycind
  verify`` on one source file, replayed in-process so that every public call
  gets its own span.

An operation that raises (``MemoryError`` and ``SystemError`` under the memory
budget included) or overruns its wall-time budget is reported as failed with
the stage it had reached; the runner then carries on with the next one.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import sys
import time
from pathlib import Path

# Processor time of this process: on a shared machine, wall time also counts
# the time the host gave the CPU to someone else.
clock = time.process_time


class Overrun(BaseException):
    """Raised by the wall-time alarm; a BaseException so that no handler in
    the program under test can swallow it."""


def _alarm(_signum, _frame):
    raise Overrun()


class Tracer:
    """Spans around the calls into the program, kept in memory.

    With tracing off only the current stage name is kept, so a failure can
    still say where it happened.  A span is ``[id, name, start, end, parent,
    op]`` with times in processor seconds of the runner.
    """

    def __init__(self, on: bool):
        self.on = on
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.stage = ""
        self.op = None

    def call(self, name, fn, *args, **kw):
        self.stage = name
        if not self.on:
            return fn(*args, **kw)
        sid = len(self.spans)
        span = [sid, name, clock(), None, self.stack[-1] if self.stack else None, self.op]
        self.spans.append(span)
        self.stack.append(sid)
        try:
            return fn(*args, **kw)
        finally:
            span[3] = clock()
            self.stack.pop()

    def take(self) -> list[list]:
        out, self.spans, self.stack = self.spans, [], []
        return out


def distinct_nodes(proof) -> int:
    """Distinct subderivations by object identity, as ``proof_to_doc`` emits
    them; hashing a proof by value would walk every shared subtree again."""
    seen = set()
    stack = [proof]
    while stack:
        d = stack.pop()
        if id(d) in seen:
            continue
        seen.add(id(d))
        stack.extend(d.children)
    return len(seen)


def conclusion_ok(seq, root: str, sorts) -> bool:
    """The proof concludes the root judgment: no hypotheses, one variable per
    argument with the function's sorts, and the root applied to them."""
    from cycind.logic import Atom, FreeV

    names = tuple(v for v, _s in seq.ctx)
    return (
        not seq.hyps
        and tuple(s for _v, s in seq.ctx) == tuple(sorts)
        and seq.concl == Atom(root, tuple(FreeV(v) for v in names))
    )


class Ops:
    """The two operation kinds, written as sequences of traced calls."""

    def __init__(self, tracer: Tracer, workdir: Path):
        from cycind import core, formats, logic, minilang, sct, unfold
        # the package re-exports the function under the module's name
        from cycind.translate import translate

        self.core, self.formats, self.logic = core, formats, logic
        self.minilang, self.sct, self.unfold = minilang, sct, unfold
        self.translate = translate
        self.t = tracer
        self.workdir = workdir

    def _prove(self, system, deriv, counts):
        """Shared tail of both kinds: decide, unfold, replay, translate, check."""
        t = self.t
        cs = t.call("core.induced_call_graph", self.core.induced_call_graph, deriv, system)
        verdict = t.call("sct.decide_termination", self.sct.decide_termination, cs)
        counts["closure_size"] = verdict.closure_size
        if not verdict.terminating:
            return verdict, None, None
        rep1 = t.call("unfold.build_reset_rep", self.unfold.build_reset_rep, deriv, system)
        counts["unfold_nodes"] = len(rep1.nodes)
        rep2 = t.call("unfold.respect_induction_order", self.unfold.respect_induction_order, rep1)
        counts["replay_nodes"] = len(rep2.nodes)
        del rep1
        proof = t.call("translate.translate", self.translate, rep2)
        del rep2
        t0 = clock()
        t.call("logic.check_proof", self.logic.check_proof, system, proof)
        return verdict, proof, clock() - t0

    def _proof_counts(self, proof, counts) -> float:
        """Size counts of a finished proof; returns the seconds spent, which
        the caller leaves out of the operation's time."""
        t0 = clock()

        def count():
            counts["proof_nodes"] = self.logic.proof_size(proof)
            counts["inductions"] = self.logic.count_rule(proof, "gt_ind")
            counts["doc_rows"] = distinct_nodes(proof)

        self.t.call("bench.count", count)
        return clock() - t0

    def fuzz(self, op, res):
        t = self.t
        cs = self.formats.call_system_from_doc(op["system"])
        root = op["root"]
        t0 = clock()
        system, derivs = t.call("core.induced_proof_system", self.core.induced_proof_system, cs)
        verdict, proof, check_s = self._prove(system, derivs[root], res["counts"])
        times = res["times"]
        times["op"] = times["unravel"] = clock() - t0
        res["verdict"] = verdict.terminating
        if proof is None:
            return
        times["prove"] = times["op"]
        times["verify"] = check_s
        res["conclusion_ok"] = conclusion_ok(proof.seq, root, cs.functions[root])
        self._proof_counts(proof, res["counts"])

    def cli(self, op, res):
        """``cycind unravel SRC --fun ROOT --out DOC`` then ``cycind verify DOC``."""
        t, fm = self.t, self.formats
        counts, times = res["counts"], res["times"]
        root = op["root"]
        doc_path = self.workdir / (op["id"] + ".proof.json")
        t0 = clock()
        untimed = 0.0

        def unravel():
            nonlocal untimed
            text = Path(op["path"]).read_text()
            if op["path"].endswith(".fun"):
                cs = t.call("minilang.parse_call_system", self.minilang.parse_call_system, text)
            else:
                cs = t.call("formats.loads", fm.loads, text)[1]
            system, derivs = t.call("core.induced_proof_system", self.core.induced_proof_system, cs)
            verdict, proof, _ = self._prove(system, derivs[root], counts)
            res["verdict"] = verdict.terminating
            if proof is None:
                return False
            untimed = self._proof_counts(proof, counts)
            doc = t.call("formats.proof_to_doc", fm.proof_to_doc, proof, system)
            del proof
            text = t.call("formats.dumps", fm.dumps, doc)
            del doc
            doc_path.write_text(text)
            return True

        wrote = t.call("unravel", unravel)
        times["unravel"] = times["prove"] = times["op"] = clock() - t0 - untimed
        if not wrote:
            return
        counts["doc_bytes"] = doc_path.stat().st_size

        def verify():
            _kind, (system, proof) = t.call("formats.loads", fm.loads, doc_path.read_text())
            t.call("logic.check_proof", self.logic.check_proof, system, proof)
            return proof.seq

        t1 = clock()
        seq = t.call("verify", verify)
        times["verify"] = clock() - t1
        times["op"] += times["verify"]
        res["conclusion_ok"] = conclusion_ok(seq, root, op["sorts"])
        doc_path.unlink()


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    limit = job["memory_mb"] << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    signal.signal(signal.SIGALRM, _alarm)
    tracer = Tracer(job["trace"])
    ops = Ops(tracer, Path(job["workdir"]))
    run = {"fuzz": ops.fuzz, "cli": ops.cli}
    for i in range(job["start_index"], len(job["ops"])):
        op = job["ops"][i]
        res = {"pass": job["pass"], "index": i, "id": op["id"], "ok": True, "stage": None,
               "error": None, "wrong": None, "verdict": None, "conclusion_ok": None,
               "times": {}, "counts": {}}
        tracer.op = f"{job['pass']}:{op['id']}"
        t0 = clock()
        signal.setitimer(signal.ITIMER_REAL, job["op_wall_s"])
        try:
            tracer.call("op", run[op["kind"]], op, res)
        except (Overrun, Exception) as e:  # noqa: BLE001 - every failure is a result
            res["ok"] = False
            res["error"] = type(e).__name__
            res["stage"] = tracer.stage
            res["times"]["op"] = clock() - t0
            res["times"].setdefault("unravel", res["times"]["op"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if not res["ok"]:
            gc.collect()
        res["spans"] = tracer.take()
        print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
