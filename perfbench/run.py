#!/usr/bin/env python3
"""ipscert benchmark: one workload in one process, one JSON result line.

    python3 perfbench/run.py --workload certify-exact --seed 20260810 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from src/.
The workload's inputs are generated from --seed and set up SETUP_REPEATS
times (setup_s is the median).  The untraced run (--trace 0) calls
ipscert.cli.main in-process on the generated files, one operation after
another: one pass over every operation, then passes over the short ones
(see untraced), and reports the end-to-end metrics from calibrated times
(see speed.py).  The traced run (--trace 1) makes one untraced and one
traced pass, checks that both produced byte-identical outputs, and reports
the per-layer metrics.  Every operation is checked against a known answer
(see workloads.py); the last line of stdout is the result, and the exit code
is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
TRACES = os.path.join(ROOT, ".perfbench-trace")
SETUP_REPEATS = 3
MIN_PASSES = 2
REPEAT_LIMIT_S = 3.0

sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CLI_COMMANDS = ("parse", "normalize", "transform", "refute", "verify", "image", "funcref", "rank")

# (name, unit) of the per-layer metrics every traced run reports; lower is better.
PER_LAYER = [
    ("poly.mul.calls", "count"), ("poly.mul.self_s", "s"),
    ("poly.mul.term_pairs", "count"), ("poly.mul.terms_out", "count"),
    ("poly.add.calls", "count"), ("poly.add.self_s", "s"), ("poly.add.terms_out", "count"),
    ("poly.multilinear_reduce.self_s", "s"), ("poly.multilinear_reduce.terms_in", "count"),
    ("poly.multilinear_reduce.terms_out", "count"),
    ("poly.restrict.calls", "count"), ("poly.restrict.self_s", "s"),
    ("poly.substitute.self_s", "s"), ("poly.parse_poly.self_s", "s"),
    ("poly.format_poly.self_s", "s"), ("poly.peak_terms", "count"),
    ("circuit.parse_circuit.self_s", "s"), ("circuit.parse_circuit.gates", "count"),
    ("circuit.format_circuit.self_s", "s"), ("circuit.format_circuit.bytes", "bytes"),
    ("circuit.normalize_layered.self_s", "s"),
    ("circuit.expand.calls", "count"), ("circuit.expand.self_s", "s"),
    ("circuit.expand.gates", "count"),
    ("circuit.subcircuit.calls", "count"), ("circuit.subcircuit.self_s", "s"),
    ("circuit.compose.self_s", "s"), ("circuit.compose.gates_built", "count"),
    ("circuit.measure.self_s", "s"),
    ("circuit.eval_circuit_mod.calls", "count"), ("circuit.eval_circuit_mod.self_s", "s"),
    ("circuit.eval_circuit_mod.gates", "count"),
    ("circuit.compiled_eval.calls", "count"), ("circuit.compiled_eval.self_s", "s"),
    ("circuit.partial_evaluate.self_s", "s"),
    ("gadget.gadgetize.self_s", "s"), ("gadget.gadgetize.gates_out", "count"),
    ("gadget.ledger_json.self_s", "s"),
    ("refute.assemble_refutation.self_s", "s"), ("refute.certificate_to_json.self_s", "s"),
    ("refute.certificate_from_json.self_s", "s"),
    ("refute.cert_bytes", "bytes"), ("refute.cofactor_gates", "count"),
    ("refute.distinct_gates", "count"), ("refute.share_ratio", "ratio"),
    ("verify.verify_exact.calls", "count"), ("verify.verify_exact.self_s", "s"),
    ("verify.verify_pit.self_s", "s"), ("verify.verify_pit.evaluations", "count"),
    ("verify.boolean_image.self_s", "s"), ("verify.boolean_image.points", "count"),
    ("instances.build.self_s", "s"), ("instances.functional_identity_holds.self_s", "s"),
    ("rank.fullrank_witness.self_s", "s"), ("rank.rank_matrix.self_s", "s"),
    ("rank.exact_rank.self_s", "s"), ("rank.exact_rank.cells", "count"),
] + [(f"cli.{c}.{k}", u) for c in CLI_COMMANDS for k, u in (("calls", "count"), ("self_s", "s"))] + [
    ("bench.traced_wall_s", "s"), ("bench.trace_overhead_s", "s"), ("bench.unattributed_s", "s"),
]

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB")]


def load_cli():
    """ipscert.cli.main from this checkout's src/, or SystemExit."""
    if not os.path.isfile(os.path.join(SRC, "ipscert", "cli.py")):
        raise SystemExit(f"error: no ipscert sources under {SRC}")
    sys.path.insert(0, SRC)
    import ipscert.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(ipscert.cli.__file__))) != SRC:
        raise SystemExit(f"error: imported ipscert from {ipscert.cli.__file__}, not {SRC}")
    return ipscert.cli.main


def set_up(cli_main, workload: str, seed: int):
    """Generate and write the inputs, then warm up on the smallest op of each kind."""
    workdir = tempfile.mkdtemp(dir=WORK)
    prog = workloads.Program(cli_main, workdir)
    ops = workloads.WORKLOADS[workload](prog, seed)
    smallest: dict = {}
    for op in ops:
        if op.kind not in smallest or op.size < smallest[op.kind].size:
            smallest[op.kind] = op
    for op in smallest.values():
        prog.run_op(op)
    return prog, ops


class Runs:
    """Outcomes of running ops: per-op calibrated and raw latencies, failures, digests."""

    def __init__(self, n: int):
        self.latencies = [[] for _ in range(n)]
        self.raw = [[] for _ in range(n)]
        self.errors: list = []
        self.digests: dict = {}
        self.docs: list = []
        self.wall = 0.0

    def run(self, prog, ops, only=None, keep_docs=False, tracer=None):
        t_pass = time.perf_counter()
        for i in range(len(ops)) if only is None else only:
            op = ops[i]
            if tracer is not None:
                tracer.current_op = i
            (err, digest, doc), raw, calibrated = prog.run_op(op)
            self.raw[i].append(raw)
            self.latencies[i].append(calibrated)
            if err is not None:
                self.errors.append(err)
                continue
            first = self.digests.setdefault(i, digest)
            if first != digest:
                self.errors.append(f"{op.label}: outputs differ between passes")
            if keep_docs:
                self.docs.append(doc)
        self.wall += time.perf_counter() - t_pass

    def attempted(self) -> int:
        return sum(len(x) for x in self.raw)


def untraced(prog, ops, seconds: float) -> tuple:
    """End-to-end timings from one pass over the ops and repeats of the short ones.

    Calibration removes most of the machine's speed drift; what is left is
    noise of a few percent on short operations, so every operation under
    REPEAT_LIMIT_S runs again in MIN_PASSES - 1 more passes (and more, until
    `seconds` have passed) and counts with its fastest run.  Longer ones are
    probed many times while they run, and repeating them would double the
    run time.
    """
    r = Runs(len(ops))
    r.run(prog, ops)
    repeat = [i for i, lat in enumerate(r.latencies) if lat[0] < REPEAT_LIMIT_S]
    passes = 1
    while repeat and (passes < MIN_PASSES or r.wall < seconds):
        r.run(prog, ops, only=repeat)
        passes += 1
    metrics = latency_metrics([min(lat) for lat in r.latencies])
    raw = latency_metrics([min(lat) for lat in r.raw])
    print(f"{passes} passes in {r.wall:.1f} s; uncalibrated: "
          + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()), file=sys.stderr)
    return r, metrics


def latency_metrics(best: list) -> dict:
    return {
        "ops_per_s": len(best) / sum(best),
        "latency_p50_ms": statistics.median(best) * 1e3,
        "latency_p90_ms": statistics.quantiles(best, n=10)[8] * 1e3,
    }


def cert_structure(doc: bytes) -> tuple:
    """(cofactor gates, distinct cofactor subtrees) of one certificate document.

    Identical subtrees anywhere among the certificate's cofactors are
    counted once: each gate is interned by its kind and payload, or by its
    kind and the interned ids of its children.
    """
    table: dict = {}
    total = 0
    for lines in json.loads(doc)["cofactors"]:
        ids: dict = {}
        for line in lines:
            if line.startswith("OUTPUT"):
                continue
            lhs, rhs = line.split(" = ", 1)
            toks = rhs.split()
            if toks[0] in ("VAR", "CONST"):
                key = (toks[0], toks[1])
            else:
                key = (toks[0], tuple(ids[t] for t in toks[1:]))
            ids[lhs] = table.setdefault(key, len(table))
            total += 1
    return total, len(table)


def traced(prog, ops, trace_path: str) -> tuple:
    """Per-layer metrics from one traced pass, checked against an untraced pass.

    The spans are written to trace_path when the pass is over."""
    ref = Runs(len(ops))
    ref.run(prog, ops, keep_docs=True)
    tracer = Tracer()
    prog.tracer = tracer
    tracer.install()
    try:
        run = Runs(len(ops))
        run.digests = dict(ref.digests)
        run.run(prog, ops, tracer=tracer)
    finally:
        tracer.uninstall()
        prog.tracer = None
    failures = ref.errors + run.errors
    errors: list = []

    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracer.write(trace_path)
    print(f"{len(tracer.start)} spans written to {trace_path}; untraced pass "
          f"{ref.wall:.2f} s, calibrated {sum(map(sum, ref.latencies)):.2f} s", file=sys.stderr)
    calls, self_s, root_s = tracer.summary()
    values = dict(tracer.counters)
    values.update((name + ".calls", n) for name, n in calls.items())
    values.update((name + ".self_s", s) for name, s in self_s.items())
    values["poly.peak_terms"] = tracer.peak_terms
    structure = [cert_structure(doc) for doc in ref.docs if doc]
    gates = sum(g for g, _ in structure)
    distinct = sum(d for _, d in structure)
    values["refute.cert_bytes"] = sum(len(doc) for doc in ref.docs)
    values["refute.cofactor_gates"] = gates
    values["refute.distinct_gates"] = distinct
    values["refute.share_ratio"] = gates / distinct if distinct else 0
    values["bench.traced_wall_s"] = run.wall
    # Calibrated, so that speed drift between the two passes cancels.
    values["bench.trace_overhead_s"] = sum(map(sum, run.latencies)) - sum(map(sum, ref.latencies))
    values["bench.unattributed_s"] = run.wall - root_s
    attributed = sum(self_s.values())
    if abs(attributed + values["bench.unattributed_s"] - run.wall) > 1e-6 * max(run.wall, 1):
        errors.append(f"layer self times {attributed} + unattributed "
                      f"{values['bench.unattributed_s']} != traced wall {run.wall}")
    errors += tracer.nesting_errors()
    metrics = {name: values.get(name, 0) for name, _ in PER_LAYER}
    report_split(metrics, run.wall)
    return ref, run, failures, errors, metrics


def report_split(m: dict, wall: float) -> None:
    """The layer shares the workloads were chosen for, on stderr."""
    def share(*names):
        return sum(m.get(n, 0) for n in names) / wall if wall else 0.0
    poly = share("poly.mul.self_s", "poly.add.self_s")
    cert = share(*[n for n in m if n.startswith("refute.") and n.endswith(".self_s")],
                 "circuit.compose.self_s", "circuit.eval_circuit_mod.self_s")
    print(f"traced wall {wall:.3f} s: poly.mul+poly.add self {poly:.1%}; "
          f"refute.* + circuit.compose + circuit.eval_circuit_mod self {cert:.1%}",
          file=sys.stderr)
    top = sorted(((v, k) for k, v in m.items() if k.endswith("_s") and not k.startswith("bench.")),
                 reverse=True)[:12]
    for v, k in top:
        print(f"  {k:45s} {v:9.3f} s  {v / wall:6.1%}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=20260810)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        cli_main = load_cli()
    except (SystemExit, ImportError) as exc:
        print(exc, file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    setups = []
    prog = None
    try:
        for _ in range(SETUP_REPEATS):
            if prog is not None:
                shutil.rmtree(prog.workdir)
            before = speed.probe()
            t0 = time.perf_counter()
            prog, ops = set_up(cli_main, args.workload, args.seed)
            raw = time.perf_counter() - t0
            setups.append(speed.calibrate(raw, [before, speed.probe()]))

        if args.trace:
            trace_path = os.path.join(TRACES, f"{args.workload}-{args.seed}.tsv.gz")
            ref, run, failures, errors, metrics = traced(prog, ops, trace_path)
            attempted = ref.attempted() + run.attempted()
            units = dict(PER_LAYER)
        else:
            run, metrics = untraced(prog, ops, args.seconds)
            failures, errors = run.errors, []
            attempted = run.attempted()
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = dict(END_TO_END)
    finally:
        if prog is not None:
            shutil.rmtree(prog.workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    for err in (failures + errors)[:20]:
        print("FAILED:", err, file=sys.stderr)
    ok = not failures and not errors
    result = {
        "correct": ok,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
