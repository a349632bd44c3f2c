"""Shared test utilities: random formulas, polynomials, and cert mutations."""

from __future__ import annotations

import random
from fractions import Fraction

from ipscert.circuit import (
    ADD,
    CONST,
    Circuit,
    CircuitBuilder,
    Gate,
    MUL,
    VAR,
    _compact,
    eval_circuit_mod,
)
from ipscert.gadget import GadgetChild, GadgetLedger, LedgerEntry
from ipscert.poly import SparsePoly, Var, mono_from_pairs
from ipscert.refute import NullstellensatzCertificate

CORPUS_SEED = 20260810


def random_layered_formula(rng: random.Random, max_nodes: int = 30, n_vars: int = 6,
                           const_pool=(0, 1), max_depth: int = 5) -> Circuit:
    """A random layered alternating formula with an addition gate on top.

    Leaves are x-variables or constants from const_pool; internal layers
    strictly alternate ADD and MUL; total gate count stays <= max_nodes.
    """
    b = CircuitBuilder()
    nodes = 0

    def leaf() -> int:
        nonlocal nodes
        nodes += 1
        if rng.random() < 0.08:
            return b.const(rng.choice(const_pool))
        return b.var(Var("x", rng.randrange(1, n_vars + 1)))

    def node(kind: str, depth: int, budget: int) -> int:
        # budget = gates this subtree may create, including its own gate
        nonlocal nodes
        if budget < 3 or depth >= max_depth or rng.random() < 0.08 * depth:
            return leaf()
        fanin = min(rng.choice((1, 2, 2, 2, 2, 3, 3, 4)), budget - 1)
        kids = []
        remaining = budget - 1
        for k in range(fanin):
            siblings_left = fanin - k - 1
            hi = remaining - siblings_left          # later siblings need 1 gate each
            lo = max(1, remaining // (fanin - k))
            share = rng.randint(lo, hi) if hi > lo else hi
            before = nodes
            if share >= 2 and rng.random() < 0.85:
                kids.append(node(MUL if kind == ADD else ADD, depth + 1, share))
            else:
                kids.append(leaf())
            remaining -= nodes - before
        nodes += 1
        return b.add(kids) if kind == ADD else b.mul(kids)

    root = node(ADD, 0, max_nodes - 1)
    if b.gate(root).op != ADD:
        root = b.add([root])
    return b.build(root)


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


def build_corpus(seed: int, count: int, const_pool=(0, 1)) -> list:
    rng = random.Random(seed)
    sizes = corpus_sizes(rng, count)
    return [random_layered_formula(rng, max_nodes=s, const_pool=const_pool) for s in sizes]


def random_poly(rng: random.Random, vars_, max_terms: int = 6, max_exp: int = 3) -> SparsePoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        k = rng.randint(0, min(3, len(vars_)))
        mono = mono_from_pairs([(v, rng.randint(1, max_exp)) for v in rng.sample(list(vars_), k)])
        terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return SparsePoly(terms)


def random_dag_circuit(rng: random.Random, n_gates: int = 20, vars_=None) -> Circuit:
    """A random well-formed circuit (possibly a DAG, possibly with fan-out)."""
    if vars_ is None:
        vars_ = [Var("x", i) for i in range(1, 5)]
    b = CircuitBuilder()
    ids = []
    for v in vars_:
        ids.append(b.var(v))
    while len(b._gates) < n_gates:
        choice = rng.random()
        if choice < 0.15:
            ids.append(b.const(Fraction(rng.randint(-2, 2))))
        else:
            fanin = rng.randint(1, 3)
            kids = [rng.choice(ids) for _ in range(fanin)]
            ids.append(b.add(kids) if choice < 0.6 else b.mul(kids))
    used = set()
    for g in b._gates:
        used.update(g.args)
    roots = [i for i in range(len(b._gates)) if i not in used]
    out = roots[0] if len(roots) == 1 else b.add(roots)
    return b.build(out)


def shuffled_topological(rng: random.Random, c: Circuit, ledger: GadgetLedger) -> tuple:
    """c with its gates renumbered in a random topological order, and the ledger to match."""
    users = [[] for _ in c.gates]
    waiting = [len(g.args) for g in c.gates]
    for i, g in enumerate(c.gates):
        for a in g.args:
            users[a].append(i)
    ready = [i for i, n in enumerate(waiting) if n == 0]
    order = []
    while ready:
        i = ready.pop(rng.randrange(len(ready)))
        order.append(i)
        for u in users[i]:
            waiting[u] -= 1
            if waiting[u] == 0:
                ready.append(u)
    new = {old: k for k, old in enumerate(order)}
    gates = [g if g.is_leaf() else Gate(g.op, args=tuple(new[a] for a in g.args))
             for g in (c.gates[i] for i in order)]
    entries = [LedgerEntry(gate=new[e.gate], source_gate=e.source_gate, t=e.t, vars=e.vars,
                           children=tuple(GadgetChild(ch.address, new[ch.child], new[ch.summand])
                                          for ch in e.children),
                           internal=frozenset(new[i] for i in e.internal))
               for e in ledger.entries]
    return Circuit(gates, new[c.output]), GadgetLedger(entries)


def random_product_dag(rng: random.Random, n_gates: int) -> Circuit:
    """A ledger-free DAG of MUL gates over x1..x3 and CONST 0/1 whose gates share children."""
    b = CircuitBuilder()
    ids = [b.var(Var("x", i)) for i in (1, 2, 3)] + [b.const(1)]
    if rng.random() < 0.3:
        ids.append(b.const(0))
    while len(b._gates) < n_gates:
        ids.append(b.mul(rng.sample(ids, rng.randint(2, 3))))
    used = {a for g in b._gates for a in g.args}
    roots = [i for i in ids if i not in used]
    return b.build(roots[0] if len(roots) == 1 else b.mul(roots))


def _semantically_differs(a: Circuit, b: Circuit, seed: int) -> bool:
    prime = 2305843009213693967
    rng = random.Random(f"mutcheck:{seed}")
    vars_ = sorted(set(a.variables()) | set(b.variables()))
    for _ in range(3):
        point = {v: rng.randrange(prime) for v in vars_}
        if eval_circuit_mod(a, point, prime) != eval_circuit_mod(b, point, prime):
            return True
    return False


def _mutate_circuit(rng: random.Random, c: Circuit) -> Circuit:
    gates = list(c.gates)
    i = rng.randrange(len(gates))
    g = gates[i]
    if g.op == CONST:
        gates[i] = Gate(CONST, const=g.const + rng.choice((1, -1, 2)))
    elif g.op == VAR:
        others = [v for v in c.variables() if v != g.var]
        if others and rng.random() < 0.7:
            gates[i] = Gate(VAR, var=rng.choice(others))
        else:
            gates[i] = Gate(CONST, const=Fraction(rng.choice((0, 2))))
    elif len(g.args) >= 2 and rng.random() < 0.5:
        args = list(g.args)
        args.pop(rng.randrange(len(args)))
        gates[i] = Gate(g.op, args=tuple(args))
    else:
        gates[i] = Gate(MUL if g.op == ADD else ADD, args=g.args)
    return _compact(gates, c.output)


def laid_out(cert: NullstellensatzCertificate) -> tuple:
    """(axioms, cofactors) of a certificate, each root laid out as its formula."""
    table = cert.table
    axioms = [(label, ax if isinstance(ax, SparsePoly) else table.formula(ax))
              for label, ax in cert.axioms]
    return axioms, [table.formula(cf) for cf in cert.cofactors]


def mutate_certificate(rng: random.Random, cert: NullstellensatzCertificate,
                       seed: int) -> NullstellensatzCertificate:
    """One single-site, semantics-changing mutation of a random cofactor."""
    axioms, cofactors = laid_out(cert)
    for attempt in range(200):
        k = rng.randrange(len(cofactors))
        original = cofactors[k]
        try:
            mutated = _mutate_circuit(rng, original)
        except ValueError:
            continue
        if _semantically_differs(original, mutated, seed * 1000 + attempt):
            cofactors[k] = mutated
            return NullstellensatzCertificate.of(
                axioms, cofactors,
                claimed_metrics=cert.claimed_metrics,
                instance_sha256=cert.instance_sha256,
                shift=cert.shift,
            )
    raise AssertionError("could not find a semantics-changing mutation")
