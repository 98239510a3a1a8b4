"""The ``cycind`` console script, run under a memory budget.

Usage (started by ``run.py`` for every CLI call)::

    python3 perfbench/cli_child.py MEMORY_MB unravel SRC --fun ROOT --out DOC

Sets ``RLIMIT_AS`` on its own process, then calls ``cycind.cli.main`` exactly
as the installed ``cycind`` script does.  When the call dies with an exception
(``MemoryError`` under the budget, ``KeyboardInterrupt`` from the parent's
wall-time budget) it writes ``stage: NAME (ERROR)`` to stderr, where NAME is
the pipeline function the subcommand had called, and re-raises.  A small
address-space reserve, released first, leaves room to write that line after
the budget ran out.
"""

import mmap
import os
import resource
import sys


def stage_of(tb) -> str:
    """``module.function`` of the call made from ``cycind/cli.py`` that was
    running, named as the traced run names its spans."""
    stage = "cli"
    in_cli = False
    while tb is not None:
        code = tb.tb_frame.f_code
        name = f"{os.path.splitext(os.path.basename(code.co_filename))[0]}.{code.co_name}"
        if code.co_filename.endswith(os.path.join("cycind", "cli.py")):
            in_cli = True
            stage = name
        elif in_cli:
            in_cli = False
            stage = name
        tb = tb.tb_next
    return stage


def main() -> int:
    limit = int(sys.argv[1]) << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    reserve = mmap.mmap(-1, 16 << 20)
    from cycind import cli

    try:
        return cli.main(sys.argv[2:])
    except SystemExit:
        raise
    except BaseException as e:
        reserve.close()
        os.write(2, f"\nstage: {stage_of(e.__traceback__)} ({type(e).__name__})\n".encode())
        raise


if __name__ == "__main__":
    sys.exit(main())
