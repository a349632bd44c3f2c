"""Seeded benchmark inputs, generated without importing the code under test.

The layered-formula recipe is a copy of the one the test suite uses to build
its 200-formula corpus: a random alternating ADD/MUL formula over x1..x6
with {0,1} constant leaves, an ADD gate on top, and node budgets skewed
small.  Formulas are produced directly as canonical circuit text, so the
program only ever sees the generated files.
"""

from __future__ import annotations

import hashlib
import math
import random

N_VARS = 6
CONST_POOL = (0, 1)
MAX_DEPTH = 5
CORPUS_SEED = 20260810
CORPUS_SIZE = 200
# SHA-256 of the concatenated canonical texts of the corpus at CORPUS_SEED.
CORPUS_SHA256 = "bdf1ac746118d215a3173ff233698e4acdcc8c6c95947bf026bfca61d96aec5a"


class Formula:
    """A gate list in builder order: ("VAR", k), ("CONST", v), (op, kids)."""

    def __init__(self):
        self.gates: list = []

    def push(self, gate: tuple) -> int:
        self.gates.append(gate)
        return len(self.gates) - 1

    def text(self) -> str:
        lines = []
        for i, (op, arg) in enumerate(self.gates):
            if op == "VAR":
                lines.append(f"g{i} = VAR x{arg}")
            elif op == "CONST":
                lines.append(f"g{i} = CONST {arg}/1")
            else:
                lines.append(f"g{i} = {op} " + " ".join(f"g{a}" for a in arg))
        lines.append(f"OUTPUT g{len(self.gates) - 1}")
        return "\n".join(lines) + "\n"


def layered_formula(rng: random.Random, max_nodes: int) -> Formula:
    """One random layered formula; the output is the last gate."""
    f = Formula()
    nodes = 0

    def leaf() -> int:
        nonlocal nodes
        nodes += 1
        if rng.random() < 0.08:
            return f.push(("CONST", rng.choice(CONST_POOL)))
        return f.push(("VAR", rng.randrange(1, N_VARS + 1)))

    def node(kind: str, depth: int, budget: int) -> int:
        nonlocal nodes
        if budget < 3 or depth >= MAX_DEPTH or rng.random() < 0.08 * depth:
            return leaf()
        fanin = min(rng.choice((1, 2, 2, 2, 2, 3, 3, 4)), budget - 1)
        kids = []
        remaining = budget - 1
        for k in range(fanin):
            siblings_left = fanin - k - 1
            hi = remaining - siblings_left
            lo = max(1, remaining // (fanin - k))
            share = rng.randint(lo, hi) if hi > lo else hi
            before = nodes
            if share >= 2 and rng.random() < 0.85:
                kids.append(node("MUL" if kind == "ADD" else "ADD", depth + 1, share))
            else:
                kids.append(leaf())
            remaining -= nodes - before
        nodes += 1
        return f.push((kind, tuple(kids)))

    root = node("ADD", 0, max_nodes - 1)
    if f.gates[root][0] != "ADD":
        f.push(("ADD", (root,)))
    return f


def corpus_sizes(rng: random.Random, count: int) -> list:
    """Node budgets skewed small, spanning up to the 30-gate cap."""
    sizes = []
    for i in range(count):
        if i % 10 < 6:
            sizes.append(rng.randint(5, 14))
        elif i % 10 < 9:
            sizes.append(rng.randint(14, 22))
        else:
            sizes.append(rng.randint(22, 30))
    return sizes


def pinned_corpus() -> list:
    """The 200-formula corpus at CORPUS_SEED, checked against its hash."""
    rng = random.Random(CORPUS_SEED)
    sizes = corpus_sizes(rng, CORPUS_SIZE)
    corpus = [layered_formula(rng, s) for s in sizes]
    digest = hashlib.sha256("".join(f.text() for f in corpus).encode()).hexdigest()
    if digest != CORPUS_SHA256:
        raise RuntimeError(f"pinned corpus drifted: sha256 {digest} != {CORPUS_SHA256}")
    return corpus


def relabel(f: Formula, rng: random.Random) -> Formula:
    """An isomorphic copy: variables renamed, gates renumbered.

    Each gate keeps its children in their order, so the normalized formula
    has the same shape and every stage of the pipeline does the same work
    on the copy, up to the renaming.  Only the file the program reads, and
    the variable names in everything it writes, differ.
    """
    names = list(range(1, N_VARS + 1))
    rng.shuffle(names)
    out = Formula()
    slots = {}

    def emit(i: int) -> None:
        op, arg = f.gates[i]
        if op in ("ADD", "MUL"):
            order = list(arg)
            rng.shuffle(order)
            for k in order:
                emit(k)
            slots[i] = out.push((op, tuple(slots[k] for k in arg)))
        elif op == "VAR":
            slots[i] = out.push(("VAR", names[arg - 1]))
        else:
            slots[i] = out.push(("CONST", arg))

    emit(len(f.gates) - 1)
    return out


def exact_corpus(seed: int) -> list:
    """certify-exact inputs: the pinned corpus, relabelled unless seed is CORPUS_SEED."""
    corpus = pinned_corpus()
    if seed == CORPUS_SEED:
        return corpus
    rng = random.Random(f"relabel:{seed}")
    return [relabel(f, rng) for f in corpus]


def size_score(f: Formula) -> float:
    """Predicts log certificate size from the formula alone.

    ADD children drive the addressing gadgets, which dominate the
    certificate; the weights are a least-squares fit of log certificate
    bytes on 400 draws of the certify-pit recipe (residual sd 0.28, against
    0.34 for the gate count alone).
    """
    adds = sum(len(arg) for op, arg in f.gates if op == "ADD")
    muls = sum(len(arg) for op, arg in f.gates if op == "MUL")
    return 1.73 * math.log1p(adds) + 0.16 * math.log1p(muls)


def pit_corpus(seed: int, count: int) -> list:
    """certify-pit inputs: the same recipe, node budgets uniform on 20..60.

    The formulas are a stratified sample: a pool of 4 * count draws sorted
    by size_score, of which every fourth is kept, so every seed gets nearly
    the same mix of costs.
    """
    rng = random.Random(f"pit:{seed}")
    pool = [layered_formula(rng, rng.randint(20, 60)) for _ in range(4 * count)]
    pool.sort(key=size_score)
    return pool[2::4]
