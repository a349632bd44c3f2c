"""The three workloads: operations on generated files, each with a known answer.

An operation is one document's whole CLI chain (certify-*) or one command
(families-rank).  Every operation checks the program's output against an
answer known without the code under test:

  * every generated formula has {0,1} leaves, so its transform is 0/1-valued
    on the cube and f' - 2 is refutable: verify must report the expected
    verdict with exit code 0;
  * funcref on an unsatisfiable family member must report verified-exact;
  * the image of a transformed formula, and of the gadgeted family P, lies
    in {0,1} (contained: true), over exactly 2^k points when exhaustive;
  * every balanced partition has rank 2^n, by the full-rank theorem.

An operation that fails a check, exits non-zero or runs past OP_LIMIT_S
counts as failed; the run goes on.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import time

import inputs
from speed import OpTimeout, timed

# Far above the slowest operation of any workload (the worst certify-exact
# document: about 10 s at the machine's full speed, 20 s at its slowest), so
# machine drift cannot flip an outcome.
OP_LIMIT_S = 60.0
PIT_DOCS = 150
PIT_TRIALS = 20


class Program:
    """Runs ipscert.cli.main in-process, capturing stdout.

    With a tracer, each call is a root span named cli.<command>.
    """

    def __init__(self, cli_main, workdir: str):
        self.main = cli_main
        self.workdir = workdir
        self.tracer = None
        self._cli_ids: dict = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def __call__(self, *argv: str) -> tuple:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if self.tracer is None:
                rc = self.main(list(argv))
            else:
                nid = self._cli_ids.get(argv[0])
                if nid is None:
                    nid = self._cli_ids[argv[0]] = self.tracer.name_id("cli." + argv[0])
                rc = self.tracer.call(nid, self.main, (list(argv),), {})
        return rc, buf.getvalue()

    def run_op(self, op) -> tuple:
        """(outcome, raw seconds, calibrated seconds) of one operation.

        The outcome is (error or None, digest of the outputs, certificate
        document or b"").
        """
        t0 = time.perf_counter()
        try:
            return timed(lambda: op.run(self), OP_LIMIT_S)
        except OpTimeout:
            outcome = (f"{op.label}: timed out after {OP_LIMIT_S:.0f} s", "", b"")
        except Exception as exc:  # noqa: BLE001 - a malformed output fails this op only
            outcome = (f"{op.label}: {type(exc).__name__}: {exc}", "", b"")
        raw = time.perf_counter() - t0
        return outcome, raw, raw


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


class CertifyOp:
    """parse -> normalize -> transform -> refute -> verify on one formula."""

    kind = "certify"

    def __init__(self, name: str, text: str, mode: str, pit_seed: int):
        self.name = self.label = name
        self.text = text.encode()
        self.size = len(self.text)
        self.mode = mode
        self.pit_seed = pit_seed

    def run(self, prog: Program) -> tuple:
        src, canon, layered = prog.path(self.name), prog.path("op.circ"), prog.path("op.l.circ")
        cprime, ledger, cert = prog.path("op.t.circ"), prog.path("op.ledger.json"), prog.path("op.cert.json")
        h = hashlib.sha256()
        steps = [
            ("parse", "--input", src, "--out", canon),
            ("normalize", "--input", canon, "--out", layered),
            ("transform", "--input", layered, "--out", cprime, "--ledger", ledger),
            ("refute", "--input", cprime, "--ledger", ledger, "--out", cert),
        ]
        if self.mode == "exact":
            steps.append(("verify", "--cert", cert, "--mode", "exact"))
            expected = "verified-exact"
        else:
            steps.append(("verify", "--cert", cert, "--mode", "pit",
                          "--trials", str(PIT_TRIALS), "--seed", str(self.pit_seed)))
            expected = "verified-probabilistic"
        out = ""
        for argv in steps:
            rc, out = prog(*argv)
            h.update(out.encode())
            if rc != 0:
                return f"{self.name}: {argv[0]} exited {rc}", "", b""
        if _read(canon) != self.text:
            return f"{self.name}: parse did not reproduce the canonical text", "", b""
        verdict = json.loads(out)["verdict"]
        if verdict != expected:
            return f"{self.name}: verdict {verdict}, expected {expected}", "", b""
        doc = _read(cert)
        h.update(_read(cprime))
        h.update(doc)
        return None, h.hexdigest(), doc


class FuncrefOp:
    kind = "funcref"

    def __init__(self, family: str, n: int, beta: str | None):
        self.size = n
        self.argv = ("funcref", "--family", family, "--n", str(n))
        if beta is not None:
            self.argv += ("--beta", beta)
        self.label = " ".join(self.argv)

    def run(self, prog: Program) -> tuple:
        rc, out = prog(*self.argv)
        if rc != 0:
            return f"{self.label}: exited {rc}", "", b""
        verdict = json.loads(out)["verdict"]
        if verdict != "verified-exact":
            return f"{self.label}: verdict {verdict}", "", b""
        return None, hashlib.sha256(out.encode()).hexdigest(), b""


class ImageOp:
    """Boolean image of a 0/1-valued circuit: exhaustive over 2^k points or sampled."""

    def __init__(self, name: str, n_vars: int, samples: int | None, seed: int):
        self.name = name
        self.label = "image " + name
        self.size = samples or n_vars
        self.kind = "image-sampled" if samples else "image-exhaustive"
        self.argv = ("image", "--input", name, "--target", "0,1")
        if samples:
            self.argv += ("--samples", str(samples), "--seed", str(seed))
            self.expect = ("sampled", samples)
        else:
            self.expect = ("exhaustive", 1 << n_vars)

    def run(self, prog: Program) -> tuple:
        argv = list(self.argv)
        argv[2] = prog.path(self.name)
        rc, out = prog(*argv)
        if rc != 0:
            return f"{self.label}: exited {rc}", "", b""
        rows = list(csv.reader(io.StringIO(out)))
        _, mode, points, values, contained = rows[1]
        got = (mode, int(points))
        if got != self.expect or contained != "true" or not set(values.split(";")) <= {"0", "1"}:
            return f"{self.label}: {rows[1][1:]}, expected {self.expect} in {{0,1}}", "", b""
        return None, hashlib.sha256(out.encode()).hexdigest(), b""


class RankOp:
    kind = "rank"

    def __init__(self, n: int, partition: str):
        self.n = self.size = n
        self.argv = ("rank", "--n", str(n), "--partition", partition)
        self.label = "rank " + partition

    def run(self, prog: Program) -> tuple:
        rc, out = prog(*self.argv)
        if rc != 0:
            return f"{self.label}: exited {rc}", "", b""
        rows = list(csv.reader(io.StringIO(out)))
        if len(rows) != 2 or int(rows[1][1]) != 1 << self.n:
            return f"{self.label}: {rows[1:]}, expected rank {1 << self.n}", "", b""
        return None, hashlib.sha256(out.encode()).hexdigest(), b""


# ---------------------------------------------------------------------------
# Set-up: generate the inputs of one workload and write its files.

def setup_certify(prog: Program, seed: int, mode: str) -> list:
    if mode == "exact":
        corpus = inputs.exact_corpus(seed)
    else:
        corpus = inputs.pit_corpus(seed, PIT_DOCS)
    ops = []
    for i, f in enumerate(corpus):
        name = f"doc{i:03d}.circ"
        text = f.text()
        _write(prog.path(name), text)
        ops.append(CertifyOp(name, text, mode, pit_seed=seed * 1000 + i))
    return ops


def _beta_outside(rng: random.Random, top: int) -> str:
    """A target sum that no subset of 0..top reaches."""
    pick = rng.randrange(3)
    if pick == 0:
        return str(-rng.randint(1, 4))
    if pick == 1:
        return str(top + rng.randint(1, 4))
    q = rng.randint(2, 5)
    p = rng.choice([k for k in range(1, q * top) if k % q])
    return f"{p}/{q}"


# Exhaustive-image inputs per transformed variable count; cost roughly
# doubles with each variable, and varies so much within 15 and 16 that a
# few such formulas would set the seed-to-seed spread of the whole pass.
IMAGE_BUCKETS = {11: 5, 12: 5, 13: 5, 14: 5}
# Candidates always transformed, so set-up does the same work on every seed.
IMAGE_CANDIDATES = 100
SAMPLED_IMAGES = 15
RANK_OPS = {5: 40, 6: 60}


def setup_families(prog: Program, seed: int) -> list:
    rng = random.Random(f"families:{seed}")
    ops = []
    ops += [FuncrefOp("subset-sum", n, _beta_outside(rng, n)) for n in range(8, 13)]
    ops += [FuncrefOp("lifted-subset-sum", n, _beta_outside(rng, n * (n - 1) // 2))
            for n in (3, 4, 5)]
    ops += [FuncrefOp("mnc", n, None) for n in (1, 2)]

    # Transformed formulas, kept by their variable count after the transform.
    want = dict(IMAGE_BUCKETS)
    made = 0
    while made < IMAGE_CANDIDATES or any(want.values()):
        f = inputs.layered_formula(rng, rng.randint(8, 30))
        if made >= 5000:
            raise RuntimeError("could not fill the exhaustive-image buckets")
        made += 1
        src, layered, out = prog.path("img.circ"), prog.path("img.l.circ"), f"img{made:04d}.circ"
        _write(src, f.text())
        for argv in (("normalize", "--input", src, "--out", layered),
                     ("transform", "--input", layered, "--out", prog.path(out),
                      "--ledger", prog.path("img.ledger.json"))):
            rc, _ = prog(*argv)
            if rc != 0:
                raise RuntimeError(f"set-up {argv[0]} exited {rc}")
        with open(prog.path(out), encoding="utf-8") as fh:
            k = len({line.split()[-1] for line in fh if " = VAR " in line})
        if want.get(k):
            want[k] -= 1
            ops.append(ImageOp(out, k, None, 0))
        else:
            os.remove(prog.path(out))

    rc, _ = prog("instance", "--family", "gadgeted-ry", "--n", "3", "--out", prog.path("p3"))
    if rc != 0:
        raise RuntimeError(f"set-up instance exited {rc}")
    ops += [ImageOp("p3.circ", 0, 2000, rng.randrange(1 << 30)) for _ in range(SAMPLED_IMAGES)]

    for n, count in RANK_OPS.items():
        for _ in range(count):
            us = [f"u{k}" for k in range(1, 2 * n + 1)]
            rng.shuffle(us)
            ops.append(RankOp(n, ",".join(us[:n]) + "|" + ",".join(us[n:])))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "certify-exact": lambda prog, seed: setup_certify(prog, seed, "exact"),
    "certify-pit": lambda prog, seed: setup_certify(prog, seed, "pit"),
    "families-rank": setup_families,
}
