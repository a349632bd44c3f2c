"""Algebraic circuit IR: DAGs of add/mul gates over variables and rationals.

A circuit is a flat table of gates indexed by position; every gate may only
reference earlier gates, which makes the table a topological order and rules
out cycles by construction.  Circuits are immutable; every transformation
returns a new circuit.  A circuit is a formula when every non-output gate
feeds exactly one other gate (the underlying graph is a tree).

There is no subtraction gate: -p is MUL(CONST -1, p).  Negation and scaling
therefore show up as fan-in-2 MUL gates with a constant child.  The metrics
treat such a gate as a coefficient riding on a wire (no wires or depth of
its own; the edge into its parent is the parent's fan-in), matching the
wire-count model in which linear-combination gates carry coefficients on
their input wires.

Line-based file format, one gate per line, ids defined before use:

    g0 = VAR x1
    g1 = CONST 1/2
    g2 = ADD g0 g1
    g3 = MUL g2 g0
    OUTPUT g3

Comments start with `#`.  Serialization is canonical and byte-stable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import repeat
from math import prod
from operator import add, mod, mul
from typing import Iterable, Mapping, Sequence

from .poly import (
    ResourceLimitError,
    SparsePoly,
    TERM_GUARD,
    UnassignedVariableError,
    Var,
    _Accumulator,
    format_frac,
    frac_mod,
    parse_frac,
    parse_var,
)

VAR = "VAR"
CONST = "CONST"
ADD = "ADD"
MUL = "MUL"


# The start of the right-hand side of an ADD or MUL line as lines() writes it.
_WRITTEN_KINDS = {f"{kind} ": kind for kind in (ADD, MUL)}


class Gate:
    """One gate: VAR(var), CONST(value), ADD(args) or MUL(args)."""

    __slots__ = ("op", "var", "const", "args")

    def __init__(self, op, var=None, const=None, args=()):
        self.op = op
        self.var = var
        self.const = const
        self.args = tuple(args)

    def is_leaf(self) -> bool:
        return self.op in (VAR, CONST)

    def __repr__(self):
        if self.op == VAR:
            return f"Gate(VAR {self.var.name})"
        if self.op == CONST:
            return f"Gate(CONST {self.const})"
        return f"Gate({self.op} {list(self.args)})"


@dataclass(frozen=True)
class Metrics:
    """Wire count and leaf-to-output depth of a circuit."""

    size: int
    depth: int


class Circuit:
    """Immutable gate table plus designated output gate."""

    __slots__ = ("gates", "output")

    def __init__(self, gates: Sequence[Gate], output: int):
        gates = tuple(gates)
        if not gates:
            raise ValueError("circuit must contain at least one gate")
        if not 0 <= output < len(gates):
            raise ValueError(f"output id g{output} is not defined")
        for i, g in enumerate(gates):
            if g.op == VAR:
                if not isinstance(g.var, Var):
                    raise ValueError(f"g{i}: VAR gate without a variable")
            elif g.op == CONST:
                if not isinstance(g.const, Fraction):
                    raise ValueError(f"g{i}: CONST gate without a rational value")
            elif g.op in (ADD, MUL):
                if not g.args:
                    raise ValueError(f"g{i}: {g.op} gate with no children")
                for a in g.args:
                    if not 0 <= a < i:
                        raise ValueError(f"g{i}: child g{a} not defined before use")
            else:
                raise ValueError(f"g{i}: unknown gate kind {g.op!r}")
        reach = [False] * len(gates)
        reach[output] = True
        for i in range(len(gates) - 1, -1, -1):
            if reach[i]:
                for a in gates[i].args:
                    reach[a] = True
        if not all(reach):
            dead = [i for i, r in enumerate(reach) if not r]
            raise ValueError(f"gates unreachable from output: {dead}")
        self.gates = gates
        self.output = output

    def __len__(self):
        return len(self.gates)

    @property
    def is_formula(self) -> bool:
        """True iff every gate fills at most one argument slot (fan-out 1)."""
        args = [a for g in self.gates for a in g.args]
        return len(args) == len(set(args))

    def variables(self) -> tuple:
        seen = {g.var for g in self.gates if g.op == VAR}
        return tuple(sorted(seen, key=lambda v: v._key))

    def __repr__(self):
        return f"Circuit({len(self.gates)} gates, output g{self.output})"


class CircuitBuilder:
    """Accumulates gates with sequential deterministic ids: a gate table.

    A builder may start from a circuit's gates (the starting gates, which
    keep their ids); gates added later are composed gates, shared by id.
    keep() adds more starting gates; intern() adds composed gates
    hash-consed (Filliatre & Conchon, ML 2006): one id per structure.
    read() lays circuit text in, through one or the other.  A root id is
    laid out as a standalone formula in one form, its text lines(), whose
    layouts later lines() calls reuse; sha256() hashes that text and
    formula() reads it back.  A root is measured and expanded without being
    laid out.
    """

    def __init__(self, gates: Sequence[Gate] = ()):
        self._gates: list = list(gates)
        self._starting: set = set(range(len(self._gates)))
        self._subcircuits: dict = {}   # starting gate id -> subcircuit
        self._shared: dict = {}        # structural key -> id of a shared gate
        self._leaf_ids: dict = {}      # leaf right-hand side written -> its id
        self._measured: dict = {}      # gate id -> (size, depth) of its layout
        self._leaves: dict = {}        # leaf right-hand side read -> its gate
        self._leaf_texts: dict = {}    # leaf gate -> its text after the gate id
        self._laid_out: dict = {}      # the layout memo of lines()

    def _push(self, g: Gate) -> int:
        self._gates.append(g)
        return len(self._gates) - 1

    def var(self, v: Var) -> int:
        return self._push(Gate(VAR, var=v))

    def const(self, value) -> int:
        return self._push(Gate(CONST, const=Fraction(value)))

    def add(self, args: Iterable[int]) -> int:
        return self._push(Gate(ADD, args=tuple(args)))

    def mul(self, args: Iterable[int]) -> int:
        return self._push(Gate(MUL, args=tuple(args)))

    def complement(self, v: Var) -> int:
        """1 - v as ADD(CONST 1, MUL(CONST -1, VAR v)), in fresh gates."""
        one = self.const(1)
        return self.add([one, self.mul([self.const(-1), self.var(v)])])

    def keep(self, c: Circuit) -> int:
        """Copy c in as starting gates, as it stands; returns its output's id."""
        offset = len(self._gates)
        for g in c.gates:
            self._gates.append(g if g.is_leaf() else
                               Gate(g.op, args=tuple(a + offset for a in g.args)))
        self._starting.update(range(offset, len(self._gates)))
        return c.output + offset

    def intern(self, key: tuple, leaf: Gate | None = None) -> int:
        """The id of the hash-consed gate with this key, added if new.

        A leaf's key is _leaf_key(leaf); an ADD or MUL gate's key is its kind
        and the hash-consed ids of its arguments, in order.
        """
        i = self._shared.get(key)
        if i is None:
            i = self._shared[key] = self._push(leaf if leaf is not None
                                               else Gate(key[0], args=key[1]))
        return i

    def read(self, lines: Sequence[str]) -> int:
        """The id of the circuit whose text lines are given, read like
        parse_circuit (same errors) and laid out again as the same text.

        The exact text that lines() writes (see _read_written) is hash-consed;
        any other valid text is kept as written, even a formula written in
        post-order with another spelling: it lays out and measures the same,
        only the table holds more gates.  Each distinct leaf text is parsed
        once per table.  A text the written reader refuses partway leaves
        the table as it found it before it is kept."""
        size = len(self._gates)
        marks = [(keys, len(keys)) for keys in (self._shared, self._leaf_ids)]
        i = self._read_written(lines)
        if i is not None:
            return i
        del self._gates[size:]
        for keys, mark in marks:
            while len(keys) > mark:
                keys.popitem()       # the entries the reader added are the last
        return self.keep(_parse_lines(lines, self._leaves))

    def _read_written(self, lines: Sequence[str]) -> int | None:
        """Hash-cons the text that lines() writes and return its root's id,
        in one pass; None for any other text, which may then be partly read
        (read() drops what it read).

        That text has three rules: line p is "g<p> = KIND operands" with
        single spaces; each ADD or MUL names exactly the gates on top of the
        post-order stack (the gates written that no gate has used yet); the
        last line is "OUTPUT g<p-1>", with one root left on the stack.  A
        leaf line's right-hand side maps to its id; the first time one
        appears, _gate_lines parses it and the line must be the line that
        lines() writes of its gate.
        """
        leaf_ids, shared = self._leaf_ids, self._shared
        ids: list = []       # ids of the gates on the stack, in order
        names: list = []     # their names, as the text writes them
        for p, line in enumerate(lines[:-1]):
            name = f"g{p}"
            head, _, rhs = line.partition(" = ")
            if head != name:
                return None
            i = leaf_ids.get(rhs)
            if i is None:
                kind = _WRITTEN_KINDS.get(rhs[:4])
                if kind is not None:
                    ops = rhs[4:].split(" ")
                    k = len(ops)
                    if ops != names[-k:]:
                        return None
                    key = kind, tuple(ids[-k:])
                    del ids[-k:], names[-k:]
                    i = shared.get(key)
                    if i is None:
                        i = self.intern(key)
                else:
                    try:
                        g, _ = next(_gate_lines((line,), self._leaves))
                    except ValueError:
                        return None
                    if _line(self._leaf_texts, p, g, ()) != line:
                        return None
                    i = leaf_ids[rhs] = self.intern(_leaf_key(g), g)
            ids.append(i)
            names.append(name)
        return ids[0] if len(ids) == 1 and lines[-1] == "OUTPUT " + names[0] else None

    def prod(self, ids: Iterable[int]) -> int:
        """Flat product folding literal 1s; a literal 0 collapses to CONST 0.

        (Only CONST gates carry a `const`, so `const == 0` means a literal 0.)
        """
        kept = []
        for i in ids:
            if self._gates[i].const == 0:
                return i
            if self._gates[i].const != 1:
                kept.append(i)
        if not kept:
            return self.const(1)
        return kept[0] if len(kept) == 1 else self.mul(kept)

    def sum(self, ids: Iterable[int]) -> int:
        """Flat sum dropping literal 0s; the empty sum is CONST 0."""
        kept = [i for i in ids if self._gates[i].const != 0]
        if not kept:
            return self.const(0)
        return kept[0] if len(kept) == 1 else self.add(kept)

    def poly(self, p: SparsePoly) -> int:
        """Sum-of-products gates for a polynomial, pushed in written order:
        the terms in canonical order, each its coefficient (left out when 1
        and the term has a variable), its variables once per power, then
        their product; then the sum."""
        terms = []
        for m, c in p.items():
            factors = [self.const(c)] if c != 1 or not m else []
            factors += [self.var(v) for v, e in m for _ in range(e)]
            terms.append(factors[0] if len(factors) == 1 else self.mul(factors))
        return self.sum(terms)

    def gate(self, i: int) -> Gate:
        return self._gates[i]

    def build(self, output: int) -> Circuit:
        return Circuit(self._gates, output)

    def copy(self) -> CircuitBuilder:
        """A builder starting from this table's gates (which keep their ids)."""
        return CircuitBuilder(self._gates)

    def subcircuit(self, root: int) -> Circuit:
        """The gates root reaches as a standalone circuit, each gate once."""
        return _compact(self._gates, root)

    def _subcircuit(self, i: int) -> Circuit:
        """Starting gate i's subcircuit (cached)."""
        if i not in self._subcircuits:
            self._subcircuits[i] = _compact(self._gates, i)
        return self._subcircuits[i]

    def lines(self, root: int) -> list:
        """The text lines of root laid out as a standalone formula, without
        recursion: each gate's line, a position counting the gates before,
        then the OUTPUT line.

        A composed gate is copied at each use, children first in argument
        order.  A starting gate brings its subcircuit (see subcircuit): the
        starting gates it reaches, in id order.

        The table keeps a layout memo across its roots: (gate id, position)
        maps to the list and end of a layout made before, and a gate laid
        out again at the same position takes that slice.  The list returned
        is shared with the memo: it may be appended to, not changed.
        """
        gates, starting, memo = self._gates, self._starting, self._laid_out
        line = partial(_line, self._leaf_texts)
        out: list = []
        done: list = []          # positions of the laid-out children, in order
        opened: list = []        # positions where the open composed gates start
        todo = [root]            # gate ids to lay out; ~i closes composed gate i
        while todo:
            i = todo.pop()
            n = len(out)
            if i < 0:
                g = gates[~i]
                k = len(g.args)
                out.append(line(n, g, done[-k:]))
                done[-k:] = [n]
                memo[~i, opened.pop()] = out, n + 1
                continue
            hit = memo.get((i, n))
            if hit is not None:
                out += hit[0][n:hit[1]]
                done.append(hit[1] - 1)
            elif i in starting:
                out += [line(n + j, g, [n + a for a in g.args])
                        for j, g in enumerate(self._subcircuit(i).gates)]
                done.append(len(out) - 1)
                memo[i, n] = out, len(out)
            elif gates[i].args:
                opened.append(n)
                todo.append(~i)
                todo.extend(reversed(gates[i].args))
            else:
                out.append(line(n, gates[i], ()))
                done.append(n)
        out.append(f"OUTPUT g{len(out) - 1}")   # past the end of every memo slice
        return out

    def formula(self, root: int) -> Circuit:
        """root laid out as a standalone formula: its lines() read back."""
        return _parse_lines(self.lines(root), self._leaves)

    def sha256(self, root: int) -> str:
        """circuit_sha256(self.formula(root)), from the lines of root."""
        text = "\n".join(self.lines(root)) + "\n"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def metrics(self, root: int) -> Metrics:
        """measure(self.formula(root)), by dynamic programming over the table:
        every gate is measured once however often it is copied, a starting
        gate by its subcircuit."""
        gates, starting, memo = self._gates, self._starting, self._measured
        todo = [root]            # ~i measures gate i from its arguments
        while todo:
            i = todo.pop()
            if i < 0:
                g = gates[~i]
                other = _is_scaled_wire(gates, g)
                if other is not None:
                    memo[~i] = memo[other]
                else:
                    memo[~i] = (len(g.args) + sum([memo[a][0] for a in g.args]),
                                1 + max([memo[a][1] for a in g.args]))
            elif i in memo:
                continue
            elif i in starting:
                m = measure(self._subcircuit(i))
                memo[i] = (m.size, m.depth)
            elif not gates[i].args:
                memo[i] = (0, 0)
            else:
                todo.append(~i)
                todo.extend(gates[i].args)
        return Metrics(*memo[root])

    def expand(self, root: int) -> SparsePoly:
        """The polynomial of root, expanding each gate it reaches once."""
        return _expand(self._gates, _postorder(self._gates, root), root, {})


def _leaf_key(g: Gate) -> tuple:
    """A leaf's hash-consing key: its variable, or its exact value (the
    numerator and denominator in lowest terms), never its hash alone."""
    if g.op == VAR:
        return (VAR, g.var)
    return (CONST, g.const.numerator, g.const.denominator)


def _postorder(gates: Sequence[Gate], root: int):
    """Yield each gate root reaches once, after its arguments, in argument order:
    the order in which a recursive walk completes them, without recursing."""
    seen: set = set()
    todo = [root]            # ~i yields gate i
    while todo:
        i = todo.pop()
        if i < 0:
            yield ~i
        elif i not in seen:
            seen.add(i)
            todo += [~i, *reversed(gates[i].args)]


def _compact(gates: Sequence[Gate], output: int) -> Circuit:
    """Drop gates unreachable from output, renumbering in stable id order."""
    remap = {}
    kept = []
    for i in sorted(_postorder(gates, output)):
        g = gates[i]
        remap[i] = len(kept)
        if g.is_leaf():
            kept.append(g)
        else:
            kept.append(Gate(g.op, args=tuple(remap[a] for a in g.args)))
    return Circuit(kept, remap[output])


def subcircuit(c: Circuit, gid: int) -> Circuit:
    """The subcircuit rooted at gid, as a standalone circuit."""
    return _compact(c.gates, gid)


def _is_scaled_wire(c_gates, g: Gate) -> int | None:
    """If g is MUL(CONST, x) with fan-in 2, return the non-constant child."""
    if g.op != MUL or len(g.args) != 2:
        return None
    a, b = g.args
    a_const = c_gates[a].op == CONST
    b_const = c_gates[b].op == CONST
    if a_const == b_const:
        return None
    return b if a_const else a


def measure(c: Circuit) -> Metrics:
    """Wire count and depth.

    A fan-in-2 MUL with one constant child is a coefficient riding on a
    wire: it contributes no wires of its own (the edge into its parent is
    already counted by the parent's fan-in) and no depth step.  This is the
    convention under which an affine factor (1 - y) measures as size 2,
    depth 1.  Every other internal gate adds its fan-in and a depth step.
    """
    depth = [0] * len(c.gates)
    size = 0
    for i, g in enumerate(c.gates):
        if g.is_leaf():
            continue
        other = _is_scaled_wire(c.gates, g)
        if other is not None:
            depth[i] = depth[other]
            continue
        size += len(g.args)
        depth[i] = 1 + max(depth[a] for a in g.args)
    return Metrics(size=size, depth=depth[c.output])


def expand(c: Circuit) -> SparsePoly:
    """The polynomial computed by the circuit, by bottom-up expansion."""
    return _expand(c.gates, range(len(c.gates)), c.output, [None] * len(c.gates))


def _expand(gates: Sequence[Gate], order: Iterable[int], output: int, polys) -> SparsePoly:
    """The polynomial of gate output, expanding the gates in order (arguments
    first) into polys, a list or dict by gate id."""
    for i in order:
        g = gates[i]
        if g.op == VAR:
            polys[i] = SparsePoly.variable(g.var)
        elif g.op == CONST:
            polys[i] = SparsePoly.constant(g.const)
        elif g.op == ADD:
            acc = _Accumulator()
            for a in g.args:
                acc.add(polys[a])
            polys[i] = acc.result()
        else:
            acc = polys[g.args[0]]
            for a in g.args[1:]:
                if len(acc) * len(polys[a]) > TERM_GUARD:
                    raise ResourceLimitError(
                        f"expansion of g{i} projects over the dense-size guard")
                acc = acc * polys[a]
            polys[i] = acc
    return polys[output]


def partial_evaluate(c: Circuit, assignment: Mapping[Var, object]) -> Circuit:
    """The circuit with the assigned variables fixed and its constants folded:
    a constant gate is one CONST, a product is 0 at its first zero factor, and
    any other gate keeps its live arguments and a folded constant other than
    the identity, first in a MUL (a scaled wire) and last in an ADD; a lone
    live argument replaces its gate.  Only gates the output reaches are kept."""
    b = CircuitBuilder()
    new_id: dict = {}   # gate id -> id in b, for a gate that is not constant
    value: dict = {}    # gate id -> value, int when integral, for a constant gate
    todo = [(c.output, 0, None, [])]   # gate id, next argument, folded constant, live ids
    while todo:
        i, pos, k, live = todo.pop()
        g = c.gates[i]
        if g.op == VAR and g.var not in assignment:
            new_id[i] = b.var(g.var)
        elif g.is_leaf():
            q = Fraction(g.const if g.op == CONST else assignment[g.var])
            value[i] = q.numerator if q.denominator == 1 else q
        else:
            is_mul = g.op == MUL
            unit = int(is_mul)
            k = unit if k is None else k
            while pos < len(g.args) and (k or not is_mul):
                a = g.args[pos]
                if a in new_id:
                    live.append(new_id[a])
                elif a not in value:
                    todo += [(i, pos, k, live), (a, 0, None, [])]
                    break
                elif is_mul:
                    k *= value[a]
                else:
                    k += value[a]
                pos += 1
            else:
                if not live or is_mul and not k:
                    value[i] = k
                else:
                    if k != unit:
                        live = [b.const(k), *live] if is_mul else [*live, b.const(k)]
                    new_id[i] = live[0] if len(live) == 1 else (b.mul if is_mul else b.add)(live)
    out = c.output
    return b.subcircuit(b.const(value[out]) if out in value else new_id[out])


# Widest gate whose children are folded by nested maps; a wider gate sums or
# multiplies a zip of its children, which keeps the iterator chain shallow.
_NESTED_FANIN = 8


def compile_evaluator(c: Circuit):
    """Compile the gate table once; returns run(columns, count, prime=None).

    run evaluates the circuit at a batch of count points, given as one column
    per variable: columns[v][k] is v's value at point k, and every column
    holds count values.  It returns the list of the count values of the
    output.  One loop walks the gates in id order; each gate's values over
    the whole batch are one list, built by map over its children's lists,
    and a list is dropped after its last reader.

    With prime None the values are exact: plain ints when every constant and
    every assigned value is an integer (the hot path of Boolean image scans;
    a bytes column holds ints and is read as is), and otherwise Fractions,
    with each non-int value taken through Fraction().  With a prime they lie
    in GF(prime): assigned values are reduced mod prime, each gate's values
    are reduced once, and rational constants are transported by frac_mod.
    A variable missing from columns raises UnassignedVariableError in both
    rings.
    """
    leaves = []     # (gate id, variable) per VAR gate
    consts = []     # (gate id, rational) per CONST gate
    internal = []   # (gate id, operator, fold over a zip, children, ids read last here)
    released: dict = {}   # gate id -> the ids it reads last (never the output's)
    last_reader = {a: i for i, g in enumerate(c.gates) for a in g.args}
    for a, i in last_reader.items():
        released.setdefault(i, []).append(a)
    for i, g in enumerate(c.gates):
        if g.op == VAR:
            leaves.append((i, g.var))
        elif g.op == CONST:
            consts.append((i, g.const))
        else:
            is_add = g.op == ADD
            internal.append((i, add if is_add else mul,
                             (sum if is_add else prod) if len(g.args) > _NESTED_FANIN else None,
                             g.args, tuple(released.get(i, ()))))

    size, out = len(c.gates), c.output

    def run(columns: Mapping[Var, Sequence], count: int, prime: int | None = None) -> list:
        vals: list = [None] * size
        moduli = repeat(prime)
        for i, q in consts:
            q = (frac_mod(q, prime) if prime is not None
                 else int(q) if q.denominator == 1 else q)
            vals[i] = [q] * count
        for i, v in leaves:
            try:
                col = columns[v]
            except KeyError:
                raise UnassignedVariableError(f"no value assigned to {v.name}") from None
            if len(col) != count:
                raise ValueError(f"{v.name} has {len(col)} values for {count} points")
            if prime is not None:
                col = [x % prime for x in col]
            elif type(col) is not bytes and not all(type(x) is int for x in col):
                col = [x if type(x) is int else Fraction(x) for x in col]
            vals[i] = col
        for i, op, fold, args, dead in internal:
            if fold is not None:
                acc = map(fold, zip(*[vals[a] for a in args]))
            else:
                acc = iter(vals[args[0]])
                for a in args[1:]:
                    acc = map(op, acc, vals[a])
            if prime is not None:
                acc = map(mod, acc, moduli)
            vals[i] = list(acc)
            for a in dead:
                vals[a] = None
        return list(vals[out])

    return run


def eval_circuit(c: Circuit, assignment: Mapping[Var, object]) -> Fraction:
    """Exact evaluation at a total assignment of the circuit's variables."""
    return Fraction(compile_evaluator(c)(_one_point(assignment), 1)[0])


def eval_circuit_mod(c: Circuit, assignment: Mapping[Var, int], prime: int) -> int:
    """Evaluation over GF(prime); rational constants transported exactly."""
    return compile_evaluator(c)(_one_point(assignment), 1, prime)[0]


def _one_point(assignment: Mapping[Var, object]) -> dict:
    """An assignment as the columns of a batch of one point."""
    return {v: (x,) for v, x in assignment.items()}


def normalize_layered(c: Circuit) -> Circuit:
    """Flatten nested same-kind gates and put an ADD gate on top.

    The result alternates ADD and MUL layers (leaves may feed either) and
    computes the same polynomial.  A MUL root is wrapped under a fan-in-1
    ADD; a leaf root is left alone.  Formulas stay formulas.
    """
    new = CircuitBuilder()
    nid: dict = {}           # old gate id -> new gate id
    for i in _postorder(c.gates, c.output):
        g = c.gates[i]
        if not g.is_leaf():
            children = []
            for a in g.args:
                cg = new.gate(nid[a])
                if cg.op == g.op:
                    children.extend(cg.args)
                else:
                    children.append(nid[a])
            g = Gate(g.op, args=children)
        nid[i] = new._push(g)
    root = nid[c.output]
    if new.gate(root).op == MUL:
        root = new.add([root])
    return _compact(new._gates, root)


def is_syntactically_multilinear(c: Circuit) -> bool:
    """True iff every MUL gate's children use pairwise disjoint variables."""
    varsets: list = [frozenset()] * len(c.gates)
    for i, g in enumerate(c.gates):
        if g.op == VAR:
            varsets[i] = frozenset((g.var,))
        elif g.op == CONST:
            varsets[i] = frozenset()
        else:
            union: set = set()
            if g.op == MUL:
                total = 0
                for a in g.args:
                    total += len(varsets[a])
                    union |= varsets[a]
                if len(union) != total:
                    return False
            else:
                for a in g.args:
                    union |= varsets[a]
            varsets[i] = frozenset(union)
    return True


# ---------------------------------------------------------------------------
# Functional composition of standalone circuits, for callers outside the
# library, which composes by gate id in one CircuitBuilder (see refute and
# instances.mnc_instance).  Each helper copies its parts whole into a fresh
# builder; cprod and csum fold literal 0/1 parts by CircuitBuilder.prod and .sum.

def cvar(v: Var) -> Circuit:
    return Circuit([Gate(VAR, var=v)], 0)


def cconst(value) -> Circuit:
    return Circuit([Gate(CONST, const=Fraction(value))], 0)


def _compose(parts: Sequence[Circuit], combine) -> Circuit:
    b = CircuitBuilder()
    root = combine(b, [b.keep(p) for p in parts])
    return _compact(b._gates, root)


def cadd(*parts: Circuit) -> Circuit:
    return _compose(parts, CircuitBuilder.add)


def cmul(*parts: Circuit) -> Circuit:
    return _compose(parts, CircuitBuilder.mul)


def cscale(value, c: Circuit) -> Circuit:
    """value * c as a fan-in-2 MUL with the constant first (a scaled wire)."""
    return cmul(cconst(value), c)


def cprod(factors: Sequence[Circuit]) -> Circuit:
    """Flat product folding literal 1s; a literal 0 collapses to CONST 0."""
    return _compose(factors, CircuitBuilder.prod)


def csum(terms: Sequence[Circuit]) -> Circuit:
    """Flat sum dropping literal 0s; the empty sum is CONST 0."""
    return _compose(terms, CircuitBuilder.sum)


def poly_to_circuit(p: SparsePoly) -> Circuit:
    """Sum-of-products formula for a polynomial (see CircuitBuilder.poly)."""
    b = CircuitBuilder()
    return b.subcircuit(b.poly(p))


def as_circuit(x) -> Circuit:
    """x if it is a circuit, otherwise the circuit of polynomial x."""
    return x if isinstance(x, Circuit) else poly_to_circuit(x)


# ---------------------------------------------------------------------------
# Circuit file format.

def format_circuit(c: Circuit) -> str:
    """Canonical line-based text form (one gate per line, then OUTPUT)."""
    texts: dict = {}
    lines = [_line(texts, i, g, g.args) for i, g in enumerate(c.gates)]
    lines.append(f"OUTPUT g{c.output}")
    return "\n".join(lines) + "\n"


def _line(leaf_texts: dict, n: int, g: Gate, args) -> str:
    """The text line of gate g at position n with these argument positions;
    leaf_texts keeps the text after the gate id of each leaf formatted."""
    if args:
        if len(args) == 2:
            return f"g{n} = {g.op} g{args[0]} g{args[1]}"
        return f"g{n} = {g.op} g" + " g".join(map(str, args))
    text = leaf_texts.get(g)
    if text is None:
        text = leaf_texts[g] = (f" = VAR {g.var.name}" if g.op == VAR
                                else f" = CONST {format_frac(g.const)}")
    return f"g{n}{text}"


def parse_circuit(text: str) -> Circuit:
    """Parse the line-based format; ids must be defined before use.

    A leaf is parsed once per distinct right-hand side: every line that
    repeats it shares its gate.
    """
    return _parse_lines(text.splitlines(), {})


def _parse_lines(lines: Sequence[str], leaves: dict) -> Circuit:
    """The circuit of these text lines, its gates in text order."""
    gates: list = []
    for g, args in _gate_lines(lines, leaves):
        if args is None:
            gates.append(g)
        elif g is None:
            return Circuit(gates, args)
        else:
            gates.append(Gate(g, args=args))


def _gate_lines(lines: Sequence[str], leaves: dict):
    """The one line parser of circuit text.

    Yields (leaf gate, None) or (ADD or MUL, argument positions) per gate
    line, a position counting the gate lines before, and last (None,
    position of the output).  leaves maps each leaf right-hand side parsed
    before to its gate; a line repeating one shares that gate.  Raises
    ValueError naming the line of the first malformed line.
    """
    id_map: dict = {}        # gate id token -> position
    output = None

    def refs(toks: list) -> list:
        try:
            return [id_map[t] for t in toks]
        except KeyError as exc:
            raise ValueError(f"reference to undefined gate {exc.args[0]!r}") from None

    for lineno, raw in enumerate(lines, start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        try:
            if line.startswith("OUTPUT"):
                if output is not None:
                    raise ValueError("multiple OUTPUT lines")
                toks = line.split()
                if len(toks) != 2:
                    raise ValueError("OUTPUT line must name exactly one gate")
                output = refs(toks[1:])[0]
                continue
            lhs, rhs = line.split("=", 1)
            lhs = lhs.strip()
            num = lhs[1:]
            if not lhs.startswith("g") or not (num.isascii() and num.isdigit()):
                raise ValueError(f"bad gate id {lhs!r}")
            if lhs in id_map:
                raise ValueError(f"gate {lhs} defined twice")
            g = leaves.get(rhs)
            if g is not None:
                item = g, None
            else:
                kind, *ops = rhs.split() or (None,)
                if kind == ADD or kind == MUL:
                    if not ops:
                        raise ValueError(f"{kind} gate {lhs} has no children")
                    item = kind, refs(ops)
                elif kind == VAR or kind == CONST:
                    if len(ops) != 1:
                        raise ValueError(f"{kind} gate {lhs} needs exactly one operand")
                    g = leaves[rhs] = (Gate(VAR, var=parse_var(ops[0])) if kind == VAR
                                       else Gate(CONST, const=parse_frac(ops[0])))
                    item = g, None
                elif kind is None:
                    raise ValueError(f"gate {lhs} has no kind")
                else:
                    raise ValueError(f"unknown gate kind {kind!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        id_map[lhs] = len(id_map)
        yield item
    if output is None:
        raise ValueError("missing OUTPUT line")
    yield None, output


def circuit_sha256(c: Circuit) -> str:
    """Content hash of the canonical serialization."""
    return hashlib.sha256(format_circuit(c).encode("utf-8")).hexdigest()
