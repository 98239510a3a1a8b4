"""Benchmark of the cycind proof pipeline, end to end and per module.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload worked --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another, each reported
as by its own command.

Workloads (see ``perfbench/README.md`` for why each one exists):

- ``worked``: the worked systems ``plus``, ``fg``, ``ack`` and ``dist``, each
  through ``cycind unravel`` and ``cycind verify``;
- ``fuzz``: the acceptance suite's random population, in-process, verdict and
  kernel-checked proof per system, no documents;
- ``crossing``: the crossing fixture plus the drawn systems whose plain
  unfolding has crossing back-edges, through the same CLI pair as ``worked``.

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
replays the same operations in-process with a span around every public call
and reports the per-module metrics.  Every operation runs in a child process
under a memory budget (``RLIMIT_AS``) and a wall-time budget.  Human-readable
lines come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The benchmark reads
and writes only inside the checkout (scratch files go to ``perfbench/out``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = HERE / "out"

MEMORY_MB = 1536          # per child; `dist` needs about 1.1 GB of address space
OP_WALL_S = 90.0          # per operation; `dist` takes about 30 s through the CLI
KILL_GRACE_S = 5.0        # after the wall-time interrupt, before SIGKILL
RUN_LIMIT_S = 170.0       # a run must end within 180 s
SETUP_SAMPLES = 15
POPULATION_SEED = 7       # the acceptance suite's fuzz population
POPULATION_KEEP = 200
PLAIN_LIMIT = 60
WORKED = ("plus", "fg", "ack", "dist")
WORKLOADS = ("worked", "fuzz", "crossing")

perf = time.perf_counter

LAYER_OF_SPAN = {
    "minilang.parse_call_system": "minilang.parse_s",
    "core.induced_proof_system": "core.induce_s",
    "core.induced_call_graph": "core.induce_s",
    "sct.decide_termination": "sct.decide_s",
    "unfold.build_reset_rep": "unfold.unfold_s",
    "unfold.respect_induction_order": "unfold.replay_s",
    "translate.translate": "translate.translate_s",
    "logic.check_proof": "logic.check_s",
    "formats.proof_to_doc": "formats.to_doc_s",
    "formats.dumps": "formats.dumps_s",
    "formats.loads": "formats.loads_s",
}
COUNTS = ("closure_size", "unfold_nodes", "replay_nodes", "proof_nodes", "inductions",
          "doc_rows", "doc_bytes")
PER_LAYER = [
    ("minilang.parse_s", "s"), ("core.induce_s", "s"), ("sct.decide_s", "s"),
    ("sct.closure_size", "count"), ("unfold.unfold_s", "s"), ("unfold.unfold_nodes", "count"),
    ("unfold.replay_s", "s"), ("unfold.replay_nodes", "count"), ("unfold.replay_growth", "ratio"),
    ("translate.translate_s", "s"), ("translate.proof_nodes", "count"),
    ("translate.inductions", "count"), ("logic.check_s", "s"), ("formats.to_doc_s", "s"),
    ("formats.dumps_s", "s"), ("formats.loads_s", "s"), ("formats.doc_rows", "count"),
    ("formats.doc_bytes", "bytes"), ("formats.sharing", "ratio"), ("trace.pass_s", "s"),
    ("trace.other_s", "s"),
]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def relabel(cs, rng):
    """The same system under a seeded permutation of its function names and
    call ids; names keep their lengths, so document sizes do not move."""
    from cycind import Call, CallSystem

    funs = list(cs.functions)
    fmap = dict(zip(funs, rng.sample(funs, len(funs))))
    ids = [c.id for c in cs.calls]
    cmap = dict(zip(ids, rng.sample(ids, len(ids))))
    return CallSystem(
        {fmap[f]: s for f, s in cs.functions.items()},
        tuple(Call(cmap[c.id], fmap[c.dom], fmap[c.codom], c.graph) for c in cs.calls),
        cs.ind_sorts,
    )


def draw_population():
    """The acceptance population: draws from ``gentle_random_call_system``
    until 200 sound systems with a plain unfolding of at most 60 nodes are
    kept.  Soundness comes from the independent oracle; the plain unfolding
    routes kept systems with crossing back-edges to ``crossing``."""
    import oracles
    from cycind import build_reset_rep, crossing_violations, induced_proof_system

    rng = random.Random(POPULATION_SEED)
    draws, kept = [], 0
    while kept < POPULATION_KEEP:
        cs = oracles.gentle_random_call_system(rng)
        root = next(iter(cs.functions))
        if not oracles.terminates(cs, roots={root}):
            draws.append(("unsound", cs))
            continue
        system, derivs = induced_proof_system(cs)
        rep = build_reset_rep(derivs[root], system, check=False)
        if len(rep.nodes) > PLAIN_LIMIT:
            draws.append(("tail", cs))
            continue
        kept += 1
        draws.append(("crossing" if crossing_violations(rep) else "fuzz", cs))
    return draws


def make_inputs(workload, seed, workdir):
    """Operations for one run: a list of dicts the runner or the CLI loop takes."""
    from cycind import formats

    import systems

    rng = random.Random(seed)
    ops, accounting = [], None
    if workload == "worked":
        for name in WORKED:
            root = systems.ROOT_FUN[name]
            cs = systems.load(name)
            if name in systems.TEXTS:
                path = workdir / f"{name}.fun"
                path.write_text(systems.TEXTS[name])
            else:
                path = workdir / f"{name}.json"
                path.write_text(formats.dumps(formats.call_system_to_doc(cs)))
            ops.append({"kind": "cli", "id": name, "path": str(path), "root": root,
                        "sorts": list(cs.functions[root]), "sound": True})
        rng.shuffle(ops)
        return ops, accounting
    draws = draw_population()
    accounting = {k: sum(1 for c, _ in draws if c == k)
                  for k in ("unsound", "fuzz", "crossing", "tail")}
    accounting["drawn"] = len(draws)
    wanted = ("unsound", "fuzz") if workload == "fuzz" else ("crossing",)
    picked = [(f"draw{i:03d}", cls, relabel(cs, rng))
              for i, (cls, cs) in enumerate(draws) if cls in wanted]
    if workload == "crossing":
        picked.insert(0, ("crossing_system", "crossing", systems.crossing_system()))
    if workload == "crossing":
        rng.shuffle(picked)
    for oid, cls, cs in picked:
        root = next(iter(cs.functions))
        op = {"id": oid, "root": root, "sorts": list(cs.functions[root]),
              "sound": cls != "unsound"}
        if workload == "fuzz":
            op.update(kind="fuzz", system=formats.call_system_to_doc(cs))
        else:
            path = workdir / f"{oid}.json"
            path.write_text(formats.dumps(formats.call_system_to_doc(cs)))
            op.update(kind="cli", path=str(path))
        ops.append(op)
    return ops, accounting


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env():
    env = {k: v for k, v in os.environ.items() if k != "CYCIND_UNFOLD_CAP"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, wall_s, out_path):
    """Run one child to completion; returns (exit code, processor s, wall s,
    peak RSS MB, stdout, stderr).  Processor time is the child's user plus
    system time: on a shared machine it stays put while wall time also counts
    the time the host ran other tenants.  At ``wall_s`` the child gets SIGINT,
    so Python code unwinds and can name its stage; SIGKILL follows after a
    grace period.  The child is always reaped before this returns."""
    err_path = out_path.with_suffix(".err")
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    reaped = threading.Event()

    def signal_child(sig):
        if not reaped.is_set():
            os.kill(pid, sig)

    t0 = perf()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], child_env(),
                         file_actions=actions)
    timers = [threading.Timer(wall_s, signal_child, (signal.SIGINT,)),
              threading.Timer(wall_s + KILL_GRACE_S, signal_child, (signal.SIGKILL,))]
    for t in timers:
        t.start()
    try:
        _, status, usage = os.wait4(pid, 0)
        wall = perf() - t0
        reaped.set()
    finally:
        for t in timers:
            t.cancel()
            t.join()
        if not reaped.is_set():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return (os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime, wall,
            usage.ru_maxrss / 1024, out_path.read_text(), err_path.read_text())


def new_result(pas, oid):
    return {"pass": pas, "id": oid, "ok": True, "stage": None, "error": None, "wrong": None,
            "verdict": None, "conclusion_ok": None, "times": {}, "counts": {}, "spans": []}


def fail(res, stage, error):
    res["ok"] = False
    res["stage"], res["error"] = stage, error


def crash_stage(rc, err):
    m = re.search(r"^stage: (\S+) \((\w+)\)$", err, re.M)
    if m:
        return m.group(1), m.group(2)
    last = err.strip().splitlines()[-1] if err.strip() else ""
    return "cli", f"exit {rc}: {last[:200]}"


def conclusion_text_ok(text, root, sorts):
    """``[x0_0:S, ...]  |- root(x0_0, ...)``: no hypotheses, the function's
    sorts, and the root judgment at exactly the context variables."""
    m = re.fullmatch(r"\[(.*)\] (.*) \|- (\S+?)\((.*)\)", text)
    if not m or m.group(2) or m.group(3) != root:
        return False
    ctx = [v.split(":", 1) for v in m.group(1).split(", ")]
    return ([s for _v, s in ctx] == list(sorts)
            and m.group(4).split(", ") == [v for v, _s in ctx])


def cli_op(op, pas, workdir, deadline):
    """``cycind unravel`` then ``cycind verify`` on one input, each in its own
    budgeted child; every check failure is a failed operation."""
    res = new_result(pas, op["id"])
    doc = workdir / f"{op['id']}.proof.json"
    child = [str(HERE / "cli_child.py"), str(MEMORY_MB)]

    def budget():
        return max(1.0, min(OP_WALL_S, deadline - perf()))

    unravel = ["unravel", op["path"], "--fun", op["root"], "--out", str(doc)]
    rc, cpu, wall, rss, out, err = spawn(child + unravel, budget(), workdir / "unravel.out")
    res["times"]["unravel"] = res["times"]["op"] = cpu
    res["wall"] = wall
    res["rss_mb"] = rss
    m = re.search(r"wrote proof: (\d+) nodes, (\d+) induction applications", out)
    if rc == 1 and "input is not sound" in err:
        res["verdict"] = False
        if op["sound"]:
            fail(res, "unravel", "negative verdict on a sound input")
            res["wrong"] = True
        return res
    if rc != 0 or not m:
        fail(res, *crash_stage(rc, err))
        return res
    res["verdict"] = True
    res["times"]["prove"] = cpu
    res["counts"].update(proof_nodes=int(m.group(1)), inductions=int(m.group(2)),
                         doc_bytes=doc.stat().st_size)
    rc, cpu, wall, rss, out, err = spawn(child + ["verify", str(doc)], budget(),
                                         workdir / "verify.out")
    doc.unlink()
    res["times"]["verify"] = cpu
    res["times"]["op"] += cpu
    res["wall"] += wall
    res["rss_mb"] = max(res["rss_mb"], rss)
    m = re.search(r"^ok: (\d+) nodes, conclusion (.*)$", out, re.M)
    if rc == 1 and "invalid proof" in err:
        fail(res, "verify", "kernel rejected the proof document")
        res["wrong"] = True
    elif rc != 0 or not m:
        fail(res, *crash_stage(rc, err))
    else:
        res["conclusion_ok"] = (conclusion_text_ok(m.group(2), op["root"], op["sorts"])
                                and int(m.group(1)) == res["counts"]["proof_nodes"])
    return res


def run_cli(ops, seconds, workdir, deadline):
    results, pas, start = [], 0, perf()
    while True:
        for op in ops:
            if perf() > deadline:
                res = new_result(pas, op["id"])
                fail(res, "not started", "run time limit")
                results.append(res)
                continue
            results.append(cli_op(op, pas, workdir, deadline))
        pas += 1
        if perf() - start >= seconds or perf() > deadline:
            return results, max((r.get("rss_mb", 0) for r in results), default=0)


def run_runner(ops, seconds, trace, workdir, deadline):
    """Passes over the operations, each in a fresh ``runner.py``; if a runner
    dies, the operation it was on fails and a new runner goes on with the next."""
    results, rss, pas, start = [], 0.0, 0, perf()
    job = {"ops": ops, "memory_mb": MEMORY_MB, "op_wall_s": OP_WALL_S, "trace": bool(trace),
           "workdir": str(workdir)}
    while True:
        index = 0
        while index < len(ops):
            job.update({"pass": pas, "start_index": index})
            (workdir / "job.json").write_text(json.dumps(job))
            rc, _cpu, _wall, peak, out, err = spawn(
                [str(HERE / "runner.py"), str(workdir / "job.json")],
                max(deadline - perf(), 1.0), workdir / "runner.out")
            rss = max(rss, peak)
            lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
            results += lines
            if rc == 0:
                break
            index = lines[-1]["index"] + 1 if lines else index
            if index < len(ops):
                res = new_result(pas, ops[index]["id"])
                fail(res, "runner", f"runner exited with {rc}: {err.strip()[-200:]}")
                results.append(res)
                index += 1
            if perf() > deadline:
                return results, rss
        pas += 1
        if perf() - start >= seconds or perf() > deadline:
            return results, rss


# ---------------------------------------------------------------------------
# checks and metrics
# ---------------------------------------------------------------------------

def check(results, ops):
    """Verdicts against the oracle's, conclusions against the root judgment."""
    by_id = {op["id"]: op for op in ops}
    for res in results:
        if not res["ok"]:
            continue
        op = by_id[res["id"]]
        if res["verdict"] != op["sound"]:
            fail(res, "check", f"verdict {res['verdict']}, oracle says {op['sound']}")
            res["wrong"] = True
        elif op["sound"] and not res["conclusion_ok"]:
            fail(res, "check", "proof does not conclude the root judgment")
            res["wrong"] = True


def by_pass(results):
    passes: dict[int, list] = {}
    for res in results:
        passes.setdefault(res["pass"], []).append(res)
    return [passes[p] for p in sorted(passes)]


def pct(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(results, setup_s, rss):
    passes = by_pass(results)

    def per_pass(key):
        return statistics.median(sum(r["times"].get(key, 0.0) for r in p) for p in passes)

    op_s = per_pass("op")
    prove: dict[str, list] = {}
    for r in results:
        if "prove" in r["times"]:
            prove.setdefault(r["id"], []).append(r["times"]["prove"] * 1000)
    prove_ms = sorted(statistics.median(v) for v in prove.values())
    ok = statistics.median(sum(r["ok"] for r in p) for p in passes)
    return {
        "setup_s": (setup_s, "s"),
        "unravel_s": (per_pass("unravel"), "s"),
        "verify_s": (per_pass("verify"), "s"),
        "verdicts_per_s": (ok / op_s if op_s else 0.0, "1/s"),
        "prove_ms.p50": (pct(prove_ms, 50), "ms"),
        "prove_ms.p95": (pct(prove_ms, 95), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def self_times(spans):
    """Self time per span name over the spans of one operation: duration
    minus the time its child spans cover."""
    child_time: dict[int, float] = {}
    for sid, _name, t0, t1, parent, _op in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    out: dict[str, float] = {}
    for sid, name, t0, t1, _parent, _op in spans:
        out[name] = out.get(name, 0.0) + (t1 - t0) - child_time.get(sid, 0.0)
    return out


def count_totals(results):
    first = by_pass(results)[0]
    return {k: sum(r["counts"].get(k) or 0 for r in first) for k in COUNTS}


def per_layer(results):
    passes = by_pass(results)
    layer_times = []
    for p in passes:
        row = {m: 0.0 for m, unit in PER_LAYER if unit == "s"}
        for r in p:
            selfs = self_times(r["spans"])
            for name, t in selfs.items():
                if name in LAYER_OF_SPAN:
                    row[LAYER_OF_SPAN[name]] += t
                elif name != "bench.count":
                    row["trace.other_s"] += t
            row["trace.pass_s"] += sum(t1 - t0 for _, name, t0, t1, _, _ in r["spans"]
                                       if name == "op") - selfs.get("bench.count", 0.0)
        layer_times.append(row)
    out = {m: statistics.median(row[m] for row in layer_times) for m in layer_times[0]}
    c = count_totals(results)
    out.update({
        "sct.closure_size": c["closure_size"],
        "unfold.unfold_nodes": c["unfold_nodes"],
        "unfold.replay_nodes": c["replay_nodes"],
        "unfold.replay_growth": c["replay_nodes"] / c["unfold_nodes"] if c["unfold_nodes"] else 0.0,
        "translate.proof_nodes": c["proof_nodes"],
        "translate.inductions": c["inductions"],
        "formats.doc_rows": c["doc_rows"],
        "formats.doc_bytes": c["doc_bytes"],
        "formats.sharing": c["doc_rows"] / c["proof_nodes"] if c["proof_nodes"] else 0.0,
    })
    return {m: (out[m], unit) for m, unit in PER_LAYER}


def drift(results, workload):
    """Counts must repeat exactly: across passes of this run, and across runs
    and trace modes of the same sources (records kept in ``perfbench/out``)."""
    found = []
    first: dict[str, dict] = {}
    for r in results:
        if not r["ok"]:
            continue
        seen = first.setdefault(r["id"], r["counts"])
        for k in seen.keys() & r["counts"].keys():
            if seen[k] != r["counts"][k]:
                found.append(f"{r['id']}.{k}: {seen[k]} then {r['counts'][k]} within the run")
    digest = hashlib.sha256()
    for path in sorted((SRC / "cycind").glob("*.py")):
        digest.update(path.read_bytes())
    record_path = OUT / f"counts-{workload}-{digest.hexdigest()[:16]}.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    for oid, counts in first.items():
        old = record.setdefault(oid, {})
        for k, v in counts.items():
            if k in old and old[k] != v:
                found.append(f"{oid}.{k}: {old[k]} in an earlier run, {v} now")
            old.setdefault(k, v)
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return found


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def measure_setup():
    """Median time from a fresh interpreter to ``cycind.cli`` imported, the
    fixed cost of every CLI call; one unmeasured start fills the bytecode cache."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        rc, cpu, _wall, _rss, _out, err = spawn(["-c", "import cycind.cli"], 60.0,
                                                OUT / "setup.out")
        if rc != 0:
            raise RuntimeError(f"importing cycind.cli failed: {err.strip()[-300:]}")
        if i:
            samples.append(cpu)
    return statistics.median(samples)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        # one report per workload, each from its own run with its own time limit
        return max(subprocess.run([sys.executable, __file__, "--workload", w, "--seed",
                                   str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]).returncode
                   for w in WORKLOADS)
    started = perf()
    if not (SRC / "cycind" / "cli.py").is_file() or not (TESTS / "oracles.py").is_file():
        print(f"perfbench: expected the cycind sources at {SRC / 'cycind'} and the test "
              f"oracles at {TESTS / 'oracles.py'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_s = measure_setup()
        ops, accounting = make_inputs(args.workload, args.seed, workdir)
        deadline = started + RUN_LIMIT_S
        if args.trace or args.workload == "fuzz":
            results, rss = run_runner(ops, args.seconds, args.trace, workdir, deadline)
        else:
            results, rss = run_cli(ops, args.seconds, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check(results, ops)
    drifts = drift(results, args.workload)
    (OUT / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results))
    if args.trace:
        metrics = per_layer(results)
    else:
        metrics = end_to_end(results, setup_s, rss)

    attempted, failed = len(results), sum(not r["ok"] for r in results)
    correct = not any(r["wrong"] for r in results)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(by_pass(results))}  operations {attempted}  failed {failed}")
    print("  processor seconds per pass: " + " ".join(
        f"{sum(r['times'].get('op', 0.0) for r in p):.3f}" for p in by_pass(results)))
    if accounting:
        print("draws (population seed {}): {drawn} drawn, {unsound} unsound, {fuzz} to fuzz, "
              "{crossing} to crossing, {tail} set aside (plain unfolding > {})"
              .format(POPULATION_SEED, PLAIN_LIMIT, **accounting))
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:14.6g} {unit}")
    if not args.trace:
        proof_bytes = sum(r["counts"].get("doc_bytes") or 0 for r in by_pass(results)[0])
        print(f"  {'proof_bytes':24s} {proof_bytes:14d} bytes")
        print(f"  {'failed_share':24s} {failed / attempted:14.6g} ratio")
    proofs = sum(1 for r in by_pass(results)[0] if "prove" in r["times"])
    print(f"  checked proofs in the first pass: {proofs}")
    if args.trace:
        untraced = OUT / f"results-{args.workload}-seed{args.seed}-trace0.json"
        if untraced.exists():
            base = statistics.median(sum(r["times"].get("op", 0.0) for r in p)
                                     for p in by_pass(json.loads(untraced.read_text())))
            traced = metrics["trace.pass_s"][0]
            print(f"  tracing overhead: trace.pass_s {traced:.3f} s against {base:.3f} s "
                  f"untraced (same seed): {traced / base - 1:+.1%}")
    for r in by_pass(results)[0]:
        if not r["ok"] or args.workload != "fuzz":
            state = "ok" if r["ok"] else f"FAILED at {r['stage']} ({r['error']})"
            times = " ".join(f"{k} {v:.3f} s" for k, v in r["times"].items())
            if "wall" in r:
                times += f" (wall {r['wall']:.3f} s)"
            counts = " ".join(f"{k} {v}" for k, v in r["counts"].items())
            print(f"  {r['id']}: {state}; {times}; {counts}")
    for line in drifts:
        print(f"  count drift: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
