"""Count the bytecodes and Python calls that translation and checking run.

Usage, from the repository root::

    PYTHONHASHSEED=0 python tests/workcount.py

The script draws the test suite's fuzz population (``conftest``'s
``draw_fuzz_population``), keeps the 199 plain draws (those the replay leaves
as they are, so the drawn crossing case is out) and runs ``translate`` and
then ``check_proof`` on each under a ``sys.settrace`` tracer.  It counts the
opcode events and the Python-level calls (generator resumptions included) in
each of the two stages and prints their totals over the draws, with the
proof nodes (distinct nodes per proof, summed), in all and per kernel rule,
so that a change in the proofs' shape shows rule by rule next to the
counts.  Of each stage's opcodes it also prints those run inside the
``__init__`` that ``core.Record`` compiles for each record class (frames of
``<string>``), the cost of the records the stage builds.  It counts each
stage's value comparisons too: the calls of ``core.Record.__eq__`` (``!=``
and container lookups included), and how many of them compare an object
with itself, which the identity test at its top answers at once.

A count is exact where a time is not, but set iteration order can change
it, so the script refuses to run unless ``PYTHONHASHSEED`` is 0.  Two runs on
one tree print the same numbers.  The file's name does not start with
``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]


def counted(fn, *args) -> tuple[object, int, int, int, int, int]:
    """``fn(*args)`` under the tracer: its result, then the opcode events and
    the calls of every frame it ran, the opcode events of the record
    constructors among those frames, and the calls of ``Record.__eq__`` and
    those of them whose two operands are one object."""
    from cycind.core import Record

    eq_code = Record.__eq__.__code__
    ops = calls = init_ops = eqs = self_eqs = 0

    def local(frame, event, _arg):
        nonlocal ops
        if event == "opcode":
            ops += 1
        return local

    def local_init(frame, event, _arg):
        nonlocal ops, init_ops
        if event == "opcode":
            ops += 1
            init_ops += 1
        return local_init

    def glob(frame, event, _arg):
        nonlocal calls, eqs, self_eqs
        calls += 1
        frame.f_trace_opcodes = True
        code = frame.f_code
        if code is eq_code:
            eqs += 1
            self_eqs += frame.f_locals["other"] is frame.f_locals["self"]
        return local_init if code.co_filename == "<string>" and code.co_name == "__init__" else local

    sys.settrace(glob)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
    return result, ops, calls, init_ops, eqs, self_eqs


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("workcount: set PYTHONHASHSEED=0; set order changes the counts", file=sys.stderr)
        return 2
    from conftest import draw_fuzz_population

    from cycind.logic import check_proof, distinct_nodes
    from cycind.translate import translate

    _, cases = draw_fuzz_population()
    plain = [case for case in cases if case.rep2 is case.rep1]
    totals = {"translate": [0] * 5, "check_proof": [0] * 5}
    rules = Counter()
    for case in plain:
        proof, *counts = counted(translate, case.rep2)
        totals["translate"] = [a + b for a, b in zip(totals["translate"], counts)]
        _, *counts = counted(check_proof, case.system, proof)
        totals["check_proof"] = [a + b for a, b in zip(totals["check_proof"], counts)]
        rules.update(d.rule for d in distinct_nodes(proof))
    print(f"{len(plain)} plain fuzz draws, {sum(rules.values()):,} proof nodes")
    for stage, (ops, calls, init_ops, eqs, self_eqs) in totals.items():
        print(f"{stage:12} {ops:>12,} bytecodes {calls:>10,} calls {init_ops:>12,} in record constructors")
        print(f"{'':12} {eqs:>12,} Record.__eq__ calls, {self_eqs:,} of an object with itself")
    print("proof nodes per rule:")
    for rule, n in sorted(rules.items()):
        print(f"  {rule:12} {n:>8,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
