"""Count the bytecodes and Python calls that translation and checking run.

Usage, from the repository root::

    PYTHONHASHSEED=0 python tests/workcount.py

The script draws the test suite's fuzz population (``conftest``'s
``draw_fuzz_population``), keeps the 199 plain draws (those the replay leaves
as they are, so the drawn crossing case is out) and runs ``translate`` and
then ``check_proof`` on each under a ``sys.settrace`` tracer.  It counts the
opcode events and the Python-level calls (generator resumptions included) in
each of the two stages and prints their totals over the draws, with the
proof nodes (distinct nodes per proof, summed).

A count is exact where a time is not, but set iteration order can change
it, so the script refuses to run unless ``PYTHONHASHSEED`` is 0.  Two runs on
one tree print the same numbers.  The file's name does not start with
``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]


def counted(fn, *args) -> tuple[object, int, int]:
    """``fn(*args)`` under the tracer: its result, then the opcode events and
    the calls of every frame it ran."""
    ops = calls = 0

    def local(frame, event, _arg):
        nonlocal ops
        if event == "opcode":
            ops += 1
        return local

    def glob(frame, event, _arg):
        nonlocal calls
        calls += 1
        frame.f_trace_opcodes = True
        return local

    sys.settrace(glob)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
    return result, ops, calls


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("workcount: set PYTHONHASHSEED=0; set order changes the counts", file=sys.stderr)
        return 2
    from conftest import draw_fuzz_population

    from cycind.logic import check_proof, distinct_nodes
    from cycind.translate import translate

    _, cases = draw_fuzz_population()
    plain = [case for case in cases if case.rep2 is case.rep1]
    totals = {"translate": [0, 0], "check_proof": [0, 0]}
    nodes = 0
    for case in plain:
        proof, ops, calls = counted(translate, case.rep2)
        totals["translate"][0] += ops
        totals["translate"][1] += calls
        _, ops, calls = counted(check_proof, case.system, proof)
        totals["check_proof"][0] += ops
        totals["check_proof"][1] += calls
        nodes += sum(1 for _d in distinct_nodes(proof))
    print(f"{len(plain)} plain fuzz draws, {nodes:,} proof nodes")
    for stage, (ops, calls) in totals.items():
        print(f"{stage:12} {ops:>12,} bytecodes {calls:>10,} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
