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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
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

# The constants of CircuitBuilder.complement, shared by all its gates.
_ONE, _MINUS_ONE = Fraction(1), Fraction(-1)

# The most bits of wire sets CircuitBuilder.metrics makes in a call (8 MiB):
# a 4,000-gate chain g = ADD g' g' makes 16 M, P - 2 at n = 12 makes 3.3 M.
_WIRE_BITS = TERM_GUARD << 2


class Gate:
    """One gate: VAR(var), CONST(value), ADD(args) or MUL(args).

    A leaf's text, the right-hand side of its line, is filled by _leaf_text
    the first time it is asked for; no other field changes after __init__,
    so that text stays the leaf's.
    """

    __slots__ = ("op", "var", "const", "args", "text")

    def __init__(self, op, var=None, const=None, args=()):
        self.op = op
        self.var = var
        self.const = const
        self.args = tuple(args)
        self.text = None

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
    """Immutable gate table plus designated output gate.

    Circuit(gates, output) validates the table: known gate kinds, arguments
    defined before use, and every gate reachable from the output.  The
    circuits the library makes from gates valid by construction
    (CircuitBuilder.build and _compact) skip it, through _unchecked.
    """

    __slots__ = ("gates", "output")

    @classmethod
    def _unchecked(cls, gates: Sequence[Gate], output: int) -> Circuit:
        """The circuit of gates that are valid by construction, not checked again."""
        c = object.__new__(cls)
        c.gates = tuple(gates)
        c.output = output
        return c

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
    keep() adds more starting gates.  read() lays circuit text in: the text
    that lines() writes hash-consed (Filliatre & Conchon, ML 2006), one id
    per structure, and any other text kept as written.  write_table()
    writes the gates that roots reach once each, starting gates first, and
    read_table() lays those lines in again, hash-consing the composed ones
    by the same keys.  Both read text through the one parser, _gate_lines,
    which tries a written-form shortcut line by line and reads a line that
    fails it by the general rules; nothing is read twice or undone.  A root
    id is laid out as a standalone formula in one form, its text lines();
    sha256() hashes that text and formula() reads it back, and fits()
    counts its lines first.  Roots are measured and expanded without being
    laid out: the gates a set of roots reach are found by one descending
    marking pass (an argument has a lower id than its gate) and walked in
    ascending id order (see _sweep), once for all the roots metrics() is
    given, which measures each gate once by the rule of its kind, and once
    per group of roots expand_each() is given, where a gate an earlier group
    expanded is not expanded again; only subcircuit() copies a root out.
    """

    def __init__(self, gates: Sequence[Gate] = ()):
        self._gates: list = list(gates)
        self._starting: set = set(range(len(self._gates)))
        self._reached: dict = {}       # gate id -> the ids it reaches, ascending
        self._shared: dict = {}        # leaf right-hand side or (kind, arg ids) -> id
        self._written: dict = {}       # leaf right-hand side -> its gate, None if not written
        self._text = 0                 # lines of text read() was given

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
        """1 - v as ADD(CONST 1, MUL(CONST -1, VAR v)), in five fresh gates,
        pushed in that order: CONST 1, CONST -1, VAR v, the MUL, the ADD."""
        gates = self._gates
        n = len(gates)
        gates += (Gate(CONST, const=_ONE), Gate(CONST, const=_MINUS_ONE), Gate(VAR, var=v),
                  Gate(MUL, args=(n + 1, n + 2)), Gate(ADD, args=(n, n + 3)))
        return n + 4

    def boolean_axiom(self, v: Var) -> int:
        """v^2 - v as poly(boolean_axiom(v)) lays it in, in seven fresh gates,
        pushed in that order: CONST -1, VAR v, their MUL, VAR v, VAR v, their
        MUL, the ADD of the two MULs."""
        gates = self._gates
        n = len(gates)
        gates += (Gate(CONST, const=_MINUS_ONE), Gate(VAR, var=v), Gate(MUL, args=(n, n + 1)),
                  Gate(VAR, var=v), Gate(VAR, var=v), Gate(MUL, args=(n + 3, n + 4)),
                  Gate(ADD, args=(n + 2, n + 5)))
        return n + 6

    def keep(self, c: Circuit) -> int:
        """Copy c in as starting gates, as it stands; returns its output's id."""
        offset = len(self._gates)
        for g in c.gates:
            self._gates.append(g if g.is_leaf() else
                               Gate(g.op, args=tuple(a + offset for a in g.args)))
        self._starting.update(range(offset, len(self._gates)))
        return c.output + offset

    def read(self, lines: Sequence[str]) -> int:
        """The id of the circuit whose text lines are given, read like
        parse_circuit (same parser, same errors) and laid out again as the
        same text.

        The text is parsed once, then laid in.  The text that lines() writes
        is hash-consed (_lay_in): every line took the parser's written-form
        shortcut, each ADD or MUL names exactly the gates on top of the
        post-order stack (the gates written that no gate has used yet), and
        the last line is "OUTPUT g<p-1>", with one root left on the stack.
        Any other valid text is kept as written, even a formula written in
        post-order with one line spelled otherwise: it lays out and measures
        the same, only the table holds more gates.  A refused text leaves
        the table as it found it."""
        items: list = []         # (leaf gate, None) or (ADD or MUL, argument positions)
        stack: list = []         # positions of the gates no gate has used yet
        post_order = True

        def note(g, args) -> int:
            nonlocal post_order
            top = len(stack) - len(args or ())      # a gate's arguments are the top
            post_order = post_order and stack[top:] == (args or [])
            stack[top:] = [len(items)]
            items.append((g, args))
            return len(items) - 1

        output, general = _gate_lines(lines, note, self._written)
        self._text += len(lines)
        n = len(items)
        if (post_order and len(stack) == 1 and not general and n == len(lines) - 1
                and lines[-1] == f"OUTPUT g{n - 1}"):
            lay, ids = self._lay_in(0), []   # the ids of the gates on the stack
            for g, args in items:
                top = len(ids) - len(args or ())
                ids[top:] = [lay(g, args and ids[top:])]
            return ids[-1]
        return self.keep(Circuit([g if args is None else Gate(g, args=args)
                                  for g, args in items], output))

    def write_table(self, roots: Sequence[int]) -> tuple:
        """(k, lines, positions): the gates the roots reach, each written
        once as a line "g<p> = ..." that names only earlier lines, and the
        line of each root.

        The first k lines are the starting gates, in id order, so that each
        lays out and measures as it does here.  The composed gates follow in
        id order, each key once: an ADD or MUL keyed by its kind and the
        lines of its arguments, a leaf by its right-hand side.  A composed
        gate lays out from its kind and arguments alone, so every root lays
        out as its lines() here once read_table reads the lines back.
        """
        gates, starting = self._gates, self._starting
        ids = _sweep(gates, roots)
        at: dict = {}            # gate id -> its line
        lines: list = []
        for i in ids:
            if i in starting:
                g = gates[i]
                at[i] = len(lines)
                lines.append(_line(len(lines), g, [at[a] for a in g.args]))
        k = len(lines)
        keyed: dict = {}         # key -> its line
        for i in ids:
            if i not in starting:
                g = gates[i]
                key = (g.op, tuple([at[a] for a in g.args])) if g.args else _leaf_text(g)
                p = keyed.get(key)
                if p is None:
                    p = keyed[key] = len(lines)
                    lines.append(_line(p, g, key[1] if g.args else ()))
                at[i] = p
        return k, lines, [at[r] for r in roots]

    def read_table(self, lines: Sequence[str], starting: int) -> dict:
        """Lay in the gate lines that write_table writes, as they are parsed,
        and return {gate id token: id}.

        The lines are read as parse_circuit reads gate lines, by the same
        parser with the same errors, but hold no OUTPUT line.  The first
        `starting` gates are kept as starting gates; every later one is
        hash-consed by its key (_lay_in), the keys read() uses.
        """
        names: dict = {}
        _gate_lines(lines, self._lay_in(starting), self._written, names)
        return names

    def _lay_in(self, starting: int):
        """The lay of _gate_lines that puts each parsed gate line in this
        table and returns its gate's id: the first `starting` lines as
        starting gates, and every later one hash-consed by its key, a leaf
        by its right-hand side as lines() writes it and an ADD or MUL gate
        by its kind and argument ids."""
        gates, shared, kept = self._gates, self._shared, self._starting
        end = len(gates) + starting     # the id after the last starting gate

        def lay(g, args) -> int:
            key = _leaf_text(g) if args is None else (g, tuple(args))
            i = len(gates)
            if i < end:
                kept.add(i)
            else:
                j = shared.setdefault(key, i)
                if j != i:
                    return j
            gates.append(g if args is None else Gate(g, args=key[1]))
            return i

        return lay

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
        """The table as a circuit with this output, which must reach every
        gate; it is not validated again."""
        return Circuit._unchecked(self._gates, output)

    def copy(self) -> CircuitBuilder:
        """A builder starting from this table's gates (which keep their ids)."""
        return CircuitBuilder(self._gates)

    def subcircuit(self, root: int) -> Circuit:
        """The gates root reaches as a standalone circuit, each gate once."""
        return _compact(self._gates, root)

    def _reach(self, i: int) -> list:
        """The ids gate i reaches, ascending (so bottom-up), swept once and
        kept: lines() lays a starting gate out over them, and
        compile_evaluator compiles a table's last gate over them."""
        ids = self._reached.get(i)
        if ids is None:
            ids = self._reached[i] = _sweep(self._gates, (i,))
        return ids

    def lines(self, root: int) -> list:
        """The text lines of root laid out as a standalone formula, without
        recursion: each gate's line, a position counting the gates before,
        then the OUTPUT line.

        A composed gate is copied at each use, children first in argument
        order.  A starting gate brings its subcircuit: the starting gates it
        reaches, each once, in id order, written from the table in place.
        """
        gates, starting = self._gates, self._starting
        out: list = []
        done: list = []          # positions of the laid-out children, in order
        todo = [root]            # gate ids to lay out; ~i closes composed gate i
        while todo:
            i = todo.pop()
            n = len(out)
            if i < 0:
                g = gates[~i]
                k = len(g.args)
                out.append(_line(n, g, done[-k:]))
                done[-k:] = [n]
            elif i in starting:
                ids = self._reach(i)
                at = {a: n + j for j, a in enumerate(ids)}
                out += [_line(at[a], gates[a], [at[b] for b in gates[a].args]) for a in ids]
                done.append(len(out) - 1)
            elif gates[i].args:
                todo.append(~i)
                todo.extend(reversed(gates[i].args))
            else:
                out.append(_line(n, gates[i], ()))
                done.append(n)
        out.append(f"OUTPUT g{len(out) - 1}")
        return out

    def formula(self, root: int) -> Circuit:
        """root laid out as a standalone formula: its lines() read back."""
        return _parse_lines(self.lines(root))

    def sha256(self, root: int) -> str:
        """circuit_sha256(self.formula(root)), from the lines of root."""
        text = "\n".join(self.lines(root)) + "\n"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def fits(self, root: int) -> bool:
        """Whether root's layout, its lines(), has at most as many gate lines
        as the table holds: its gates and the lines of text read() was given
        (a text read() hash-conses lays out as itself, in more lines than
        gates).  The lines are counted over one ascending sweep before any is
        written: a composed gate has its arguments' lines and its own, a
        starting gate the ids it reaches (_reach), each counted once and only
        while the distinct starting gates counted fit."""
        gates, starting = self._gates, self._starting
        limit = len(gates) + self._text
        if root in starting:
            return len(self._reach(root)) <= limit
        count: dict = {}         # gate id -> the lines of its layout, at most limit + 1
        held = 0                 # the lines of the distinct starting gates counted
        for i in _sweep(gates, (root,)):
            if i in starting:
                continue
            n = 1
            for a in gates[i].args:
                if a not in count:
                    if held > limit:
                        return False
                    count[a] = len(self._reach(a))
                    held += count[a]
                n += count[a]
            count[i] = min(n, limit + 1)
        return count[root] <= limit

    def metrics(self, roots: Sequence[int]) -> list:
        """[measure(self.formula(r)) for r in roots], by dynamic programming
        over one ascending sweep of the gates the roots reach.  A depth is the
        deepest argument's plus one (a scaled wire's, its wire's); a composed
        gate's size its fan-in plus its arguments' sizes.  A starting gate's
        size is its own wires, its set-less arguments' sizes and the bits of
        its arguments' wire sets ORed, a set being an int with a bit per wire
        held by a gate two slots read or over a set (so a tree holds none) till
        its last starting reader; making over _WIRE_BITS bits is a ValueError."""
        gates, starting = self._gates, self._starting
        ids = _sweep(gates, roots)
        reads = Counter([a for i in ids if i in starting for a in gates[i].args])
        size, depth = [0] * len(gates), [0] * len(gates)   # of each gate's layout
        wires: dict = {}         # starting gate id -> its wire set, until its last starting reader
        made = bit = 0           # the bit lengths of the sets made; the next free bit
        for i in ids:
            args = gates[i].args
            if not args:
                continue
            other = _is_scaled_wire(gates, gates[i])
            depth[i] = 1 + max([depth[a] for a in args]) if other is None else depth[other]
            if i not in starting:
                size[i] = len(args) + sum([size[a] for a in args]) if other is None else size[other]
                continue
            own, s = len(args) if other is None else 0, 0   # the wires only i reaches; the shared
            for a in args:
                if a in wires:
                    s |= wires[a]
                    reads[a] -= 1
                    if not reads[a]:
                        del wires[a]
                else:
                    own += size[a]
            size[i] = own + s.bit_count()
            if reads[i] > 1 or s and reads[i]:
                s |= (1 << own) - 1 << bit
                bit += own
                wires[i] = s
            made += s.bit_length()
            if made > _WIRE_BITS:
                raise ValueError(f"measuring the layouts up to g{i} would make over "
                                 f"{_WIRE_BITS} bits of wire sets")
        return [Metrics(size[r], depth[r]) for r in roots]

    def expand(self, root: int) -> SparsePoly:
        """The polynomial of root, expanding each gate it reaches once."""
        return _expand(self._gates, _sweep(self._gates, (root,)), root, {})

    def expand_each(self, groups: Sequence[Sequence[int]]):
        """Yield the polynomials of each group of roots, in order, group by
        group: each group's gates are swept once, and each gate the groups
        reach is expanded once, by the first group whose sweep reaches it,
        and kept until the last such group has been yielded."""
        gates = self._gates
        sweeps = [_sweep(gates, roots) for roots in groups]
        last: dict = {}          # gate id -> the last group whose sweep reaches it
        for k, ids in enumerate(sweeps):
            last.update(dict.fromkeys(ids, k))
        polys: dict = {}
        for k, (roots, ids) in enumerate(zip(groups, sweeps)):
            _expand(gates, [i for i in ids if i not in polys], roots[-1], polys)
            yield [polys[r] for r in roots]
            for i in ids:
                if last[i] == k:
                    del polys[i]


def _sweep(gates: Sequence[Gate], roots: Iterable[int]) -> list:
    """The ids the roots reach, ascending (so bottom-up), in one pass.

    An argument has a lower id than its gate, so marking from the top root
    down meets each reached gate after every gate that uses it; a run of
    unmarked ids is skipped in one rfind."""
    roots = list(roots)
    top = max(roots, default=-1)
    reached = bytearray(top + 1)
    for r in roots:
        reached[r] = 1
    ids: list = []
    i = top
    while i >= 0:
        ids.append(i)
        for a in gates[i].args:
            reached[a] = 1
        i -= 1
        if not reached[i]:       # at i = -1 this reads the top root's mark
            i = reached.rfind(1, 0, i)
    ids.reverse()
    return ids


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
    for i in _sweep(gates, (output,)):
        g = gates[i]
        remap[i] = len(kept)
        if g.is_leaf():
            kept.append(g)
        else:
            kept.append(Gate(g.op, args=tuple(remap[a] for a in g.args)))
    return Circuit._unchecked(kept, remap[output])


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
    return Metrics(*_measure(c.gates, range(len(c.gates))))


def _measure(gates: Sequence[Gate], ids: Sequence[int]) -> tuple:
    """(size, depth) of the last of ids by the rule of measure, folded over
    ids: every gate it reaches once, ascending."""
    depth = dict.fromkeys(ids, 0)
    size = 0
    for i in ids:
        g = gates[i]
        if g.is_leaf():
            continue
        other = _is_scaled_wire(gates, g)
        if other is not None:
            depth[i] = depth[other]
            continue
        size += len(g.args)
        depth[i] = 1 + max([depth[a] for a in g.args])
    return size, depth[ids[-1]]


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


class Folding:
    """CircuitBuilder's var, complement, add and mul with a partial
    assignment folded in as the gates are made, by one rule:

      * an assigned variable is a constant;
      * a product is 0 at its first zero factor;
      * a folded constant other than the identity goes first in a MUL (a
        scaled wire) and last in an ADD;
      * a lone live argument replaces its gate.

    A gate is named by its handle: its id in the builder b when it is live,
    or the 1-tuple of its value, an int when integral, when it folded to a
    constant; only live gates are pushed.  1 - v of an unassigned v is
    CircuitBuilder.complement's five gates, so with no assignment every
    gate is pushed as the builder pushes it.  partial_evaluate drives this
    layer over a circuit, and gadgeted_ry_circuit states P through it.
    """

    def __init__(self, assignment: Mapping[Var, object] | None = None):
        self.b = CircuitBuilder()
        self._fixed = {v: self.const(x) for v, x in (assignment or {}).items()}
        self._dropped = False      # whether a product at 0 left live gates unused

    @staticmethod
    def const(value) -> tuple:
        """The handle of a constant: its value, an int when integral."""
        if type(value) is int:
            return (value,)
        q = value if isinstance(value, Fraction) else Fraction(value)
        return (q.numerator if q.denominator == 1 else q,)

    def var(self, v: Var):
        h = self._fixed.get(v)
        return self.b.var(v) if h is None else h

    def complement(self, v: Var):
        h = self._fixed.get(v)
        return self.b.complement(v) if h is None else (1 - h[0],)

    def add(self, args: Iterable) -> int | tuple:
        k, live = 0, []
        for h in args:
            if type(h) is int:
                live.append(h)
            else:
                k += h[0]
        if not live:
            return (k,)
        if k:
            live.append(self.b.const(k))
        return live[0] if len(live) == 1 else self.b.add(live)

    def mul(self, args: Iterable) -> int | tuple:
        """The product of args, taken in order and none after the first
        zero factor: from an iterator, the factors after it are never made."""
        k, live = 1, []
        for h in args:
            if type(h) is int:
                live.append(h)
            elif h[0]:
                k *= h[0]
            else:
                self._dropped = True
                return _ZERO
        if not live:
            return (k,)
        if k != 1:
            live.insert(0, self.b.const(k))
        return live[0] if len(live) == 1 else self.b.mul(live)

    def build(self, h) -> Circuit:
        """The circuit of handle h: its one CONST gate, or the gates it
        reaches, which are every gate pushed unless a product at 0 left
        some unused (the caller uses every handle it makes, as for
        CircuitBuilder.build)."""
        if type(h) is not int:
            b = CircuitBuilder()
            return b.build(b.const(h[0]))
        return self.b.subcircuit(h) if self._dropped else self.b.build(h)


_ZERO = (0,)    # the handle of a product at 0


def partial_evaluate(c: Circuit, assignment: Mapping[Var, object]) -> Circuit:
    """The circuit with the assigned variables fixed and its constants folded
    by Folding's rule.  The gates are walked from the output, each once, and
    a product's arguments only up to its first zero factor, so that only
    gates the output may reach are made; only those it reaches are kept."""
    f = Folding(assignment)
    handle: dict = {}   # gate id -> its handle in f
    todo = [(c.output, 0, [])]   # gate id, next argument, handles of the arguments so far
    while todo:
        i, pos, args = todo.pop()
        g = c.gates[i]
        if g.op == VAR:
            handle[i] = f.var(g.var)
            continue
        if g.op == CONST:
            handle[i] = f.const(g.const)
            continue
        is_mul = g.op == MUL
        while pos < len(g.args) and not (is_mul and args and args[-1] == _ZERO):
            h = handle.get(g.args[pos])
            if h is None:
                todo += [(i, pos, args), (g.args[pos], 0, [])]
                break
            args.append(h)
            pos += 1
        else:                    # every argument the fold reads is made
            handle[i] = f.mul(args) if is_mul else f.add(args)
    return f.build(handle[c.output])


# Widest gate whose children are folded by nested maps; a wider gate sums or
# multiplies a zip of its children, which keeps the iterator chain shallow.
_NESTED_FANIN = 8


def compile_evaluator(c: Circuit | CircuitBuilder):
    """Compile the gates the root reaches, in id order, once; returns
    run(columns, count, prime=None).  The root is the last gate of c, a
    circuit (its output) or a gate table, whose walk is the table's kept
    sweep of that gate (CircuitBuilder._reach).

    run evaluates the root at a batch of count points, given as one column
    per variable: columns[v][k] is v's value at point k, and every column
    holds count values.  It returns the list of the count values of the
    root.  One loop walks the compiled gates in id order; each gate's values
    over the whole batch are one list, built by map over its children's
    lists, and a list is dropped after its last reader.

    With prime None the values are exact: plain ints when every constant and
    every assigned value is an integer (the hot path of Boolean image scans;
    a bytes column holds ints and is read as is), and otherwise Fractions,
    with each non-int value taken through Fraction().  With a prime they lie
    in GF(prime): assigned values are reduced mod prime, each gate's values
    are reduced once, and rational constants are transported by frac_mod.
    A variable missing from columns raises UnassignedVariableError in both
    rings.
    """
    if isinstance(c, Circuit):
        gates, ids = c.gates, range(len(c.gates))
    else:
        gates = c._gates
        ids = c._reach(len(gates) - 1)
    leaves = []     # (gate id, variable) per VAR gate
    consts = []     # (gate id, rational) per CONST gate
    internal = []   # (gate id, operator, fold over a zip, children, ids read last here)
    released: dict = {}   # gate id -> the ids it reads last (never the root's)
    last_reader = {a: i for i in ids for a in gates[i].args}
    for a, i in last_reader.items():
        released.setdefault(i, []).append(a)
    for i in ids:
        g = gates[i]
        if g.op == VAR:
            leaves.append((i, g.var))
        elif g.op == CONST:
            consts.append((i, g.const))
        else:
            is_add = g.op == ADD
            internal.append((i, add if is_add else mul,
                             (sum if is_add else prod) if len(g.args) > _NESTED_FANIN else None,
                             g.args, tuple(released.get(i, ()))))

    size, out = len(gates), len(gates) - 1

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
    lines = [_line(i, g, g.args) for i, g in enumerate(c.gates)]
    lines.append(f"OUTPUT g{c.output}")
    return "\n".join(lines) + "\n"


def _line(n: int, g: Gate, args) -> str:
    """The text line of gate g at position n with these argument positions."""
    if args:
        if len(args) == 2:
            return f"g{n} = {g.op} g{args[0]} g{args[1]}"
        return f"g{n} = {g.op} g" + " g".join(map(str, args))
    return f"g{n} = {_leaf_text(g)}"


def _written_leaf(rhs: str) -> Gate | None:
    """The leaf whose line's right-hand side, as lines() writes it, is rhs;
    None for any other text."""
    kind, _, operand = rhs.partition(" ")
    try:
        if kind == VAR:
            g = Gate(VAR, var=parse_var(operand))
        elif kind == CONST:
            g = Gate(CONST, const=parse_frac(operand))
        else:
            return None
    except ValueError:
        return None
    return g if _leaf_text(g) == rhs else None


def _leaf_text(g: Gate) -> str:
    """The right-hand side of leaf g's line, formatted once, into g.text."""
    text = g.text
    if text is None:
        text = g.text = f"VAR {g.var.name}" if g.op == VAR else f"CONST {format_frac(g.const)}"
    return text


def parse_circuit(text: str) -> Circuit:
    """Parse the line-based format; ids must be defined before use.

    A leaf is parsed once per distinct right-hand side: every line that
    repeats it shares its gate.
    """
    return _parse_lines(text.splitlines())


def _parse_lines(lines: Sequence[str]) -> Circuit:
    """The circuit of these text lines, its gates in text order."""
    gates: list = []

    def lay(g, args) -> int:
        gates.append(g if args is None else Gate(g, args=args))
        return len(gates) - 1

    return Circuit(gates, _gate_lines(lines, lay, {})[0])


def _gate_lines(lines: Sequence[str], lay, written: dict, names: dict | None = None) -> tuple:
    """The one parser of circuit text: returns (the value of the output,
    the number of gate lines read by the general rules).

    Calls lay(leaf gate, None) or lay(ADD or MUL, argument values) per gate
    line, in order, and binds the line's gate id token to the value lay
    returns, a position or a table's gate id; arguments and the output are
    given as their tokens' values.  Raises ValueError naming the first
    malformed line.

    While every gate so far is named by its position, a line is first
    tried by the written-form shortcut: "g<p> = KIND operands" with single
    spaces, an ADD or MUL naming earlier lines exactly, a leaf written as
    lines() writes it (_written_leaf, parsed once per dict written: leaf
    right-hand side -> its gate, None if not written).  Any other line,
    and only that line, is read by the general rules, which drop a comment
    and spaces; their leaf right-hand sides are parsed once per text.

    Given a dict names, the lines are a gate table: names is filled with
    each gate id token's value, an OUTPUT line is malformed, nothing follows
    the gate lines, and the output's value is None.
    """
    id_map: dict = {} if names is None else names   # gate id token -> value
    leaves: dict = {}        # leaf right-hand side, read by the general rules -> its gate
    positional = True        # every gate so far is named by its position
    general = 0              # gate lines read by the general rules
    output = None

    def refs(toks: list) -> list:
        try:
            return [id_map[t] for t in toks]
        except KeyError as exc:
            raise ValueError(f"reference to undefined gate {exc.args[0]!r}") from None

    for lineno, raw in enumerate(lines, start=1):
        if positional:
            name = f"g{len(id_map)}"
            head, _, rhs = raw.partition(" = ")
            if head == name:
                kind = _WRITTEN_KINDS.get(rhs[:4])
                if kind is not None:
                    try:
                        args = [id_map[t] for t in rhs[4:].split(" ")]
                    except KeyError:
                        pass
                    else:
                        id_map[name] = lay(kind, args)
                        continue
                else:
                    g = written.get(rhs, False)
                    if g is False:
                        g = written[rhs] = _written_leaf(rhs)
                    if g is not None:
                        id_map[name] = lay(g, None)
                        continue
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        try:
            if line.startswith("OUTPUT"):
                if names is not None:
                    raise ValueError("OUTPUT line in a gate table")
                if output is not None:
                    raise ValueError("multiple OUTPUT lines")
                toks = line.split()
                if len(toks) != 2:
                    raise ValueError("OUTPUT line must name exactly one gate")
                output = refs(toks[1:])[0]
                continue
            lhs, eq, rhs = line.partition("=")
            if not eq:
                raise ValueError("no '=' in a gate line")
            lhs = lhs.strip()
            num = lhs[1:]
            if not lhs.startswith("g") or not (num.isascii() and num.isdigit()):
                raise ValueError(f"bad gate id {lhs!r}")
            if lhs in id_map:
                raise ValueError(f"gate {lhs} defined twice")
            g = leaves.get(rhs)
            if g is not None:
                args = None
            else:
                kind, *ops = rhs.split() or (None,)
                if kind == ADD or kind == MUL:
                    if not ops:
                        raise ValueError(f"{kind} gate {lhs} has no children")
                    g, args = kind, refs(ops)
                elif kind == VAR or kind == CONST:
                    if len(ops) != 1:
                        raise ValueError(f"{kind} gate {lhs} needs exactly one operand")
                    g = leaves[rhs] = (Gate(VAR, var=parse_var(ops[0])) if kind == VAR
                                       else Gate(CONST, const=parse_frac(ops[0])))
                    args = None
                elif kind is None:
                    raise ValueError(f"gate {lhs} has no kind")
                else:
                    raise ValueError(f"unknown gate kind {kind!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        positional = positional and lhs == f"g{len(id_map)}"
        general += 1
        id_map[lhs] = lay(g, args)
    if names is None and output is None:
        raise ValueError("missing OUTPUT line")
    return output, general


def circuit_sha256(c: Circuit) -> str:
    """Content hash of the canonical serialization."""
    return hashlib.sha256(format_circuit(c).encode("utf-8")).hexdigest()
