"""Exact sparse multivariate polynomials over arbitrary-precision rationals.

A polynomial is a map from monomials to nonzero exact coefficients, kept
in one canonical form, so two polynomials are equal iff their forms are.
All values are immutable after construction and every operation is a
pure function.

Packed monomials.  Inside SparsePoly a monomial is one Python int holding
its exponent vector (Monagan & Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007).  A slot table gives
each Var a slot the first time it enters a polynomial packed in that table;
slot s owns the bit field [16 s, 16 s + 16) and the exponent of the variable
sits in that field, so the product of two monomials is the sum of their
ints and the constant monomial is 0.  Every polynomial records the table
its keys are packed in, and keys mean nothing outside it.  New polynomials
are packed in the current table: one process table unless a block runs
under fresh_slots(), which gives it a new, empty table, so a key is only as
wide as the variables that block has met.  An operation on polynomials from
two tables re-packs the other operand into the receiver's table, which
keeps equal polynomials equal dicts.  The text form and items() are the
same in every table.  The top bit of every field is a guard bit that a
stored monomial never sets: exponents are at most 2**15 - 1.  A product
that would carry an exponent past that raises ResourceLimitError, and
parse_poly rejects such an exponent with a ValueError, so no field ever
carries into the next variable.

Coefficients are exact rationals, never floats: the certificate
constructions need the exact constants 1/2 and powers of two, and every
identity in this package is checked with tolerance-free equality.  A
polynomial stores them as nonzero int numerators over one positive int
denominator that shares no factor with all of them, so an integral
polynomial has denominator 1.  Products and sums run on that form
directly; each result divides out the common factor once, and no
fractions.Fraction is built until items() or a caller asks for one.  A
product of two factors on one monomial set sums each unordered pair of
monomials once, with a_i*b_j + a_j*b_i, so it makes half the dict lookups
of the row-by-row product.  multilinear_product multiplies multilinear
monomials by or: over every pair of terms when the factors are sparse over
the k variables they span, and when they are dense, on the 2^k subsets by
zeta and Moebius transforms (subset_transform), with a measured cost rule
choosing.  elementary_sum lists the 2^m subset terms of a combination of
elementary symmetric polynomials of monomials directly, by doubling.

Only this module knows what a monomial is.  Polynomials are made by zero,
constant, variable, the ring operations, elementary_sum and parse_poly, and
read back by items(): each term once, as its (Var, exponent) pairs in
variable order with a Fraction coefficient, in the canonical order of the
text form.  That order, lexicographic on the pairs, is the one sort rule of
the package.

Variables live in fixed namespaces with a structured integer/string index,
e.g. x1, u3, v_1_2_4, y_5_0, w_1_4_top.  The induced order (namespace,
index) is total and stable across runs, so serialized output is
reproducible byte for byte, and every variable's name parses back to it.
"""

from __future__ import annotations

import contextvars
import re
import threading
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add, mul, or_, sub
from typing import Iterator, Mapping

# Variable namespaces: problem inputs (x, u, z), gadget controls (y, w),
# split selectors (v), and verifier placeholders (fresh).
NAMESPACES = ("fresh", "u", "v", "w", "x", "y", "z")

# Dense-size guard: no operation may produce more than this many terms.
TERM_GUARD = 1 << 24


class ResourceLimitError(RuntimeError):
    """An operation would exceed the dense-size guard (2**24 terms) or the
    largest exponent a packed monomial holds (2**15 - 1)."""


class UnassignedVariableError(ValueError):
    """Evaluation is missing a value for a variable; names the variable."""


def _elem_key(e):
    # Ints sort before strings; within a kind, natural order.
    if isinstance(e, int):
        return (0, e, "")
    return (1, 0, str(e))


def _check_index_element(ns: str, idx: tuple, e) -> None:
    """Reject index elements whose variable name would not parse back."""
    if isinstance(e, int):
        if e < 0:
            raise ValueError(f"negative index element {e!r} in {ns}{idx}")
    elif isinstance(e, str):
        if not (e.isascii() and e.isalnum() and e[0].isalpha()):
            raise ValueError(
                f"index element {e!r} in {ns}{idx} must be ASCII letters and digits, "
                "starting with a letter")
    else:
        raise ValueError(f"bad index element {e!r} in {ns}{idx}")


class Var:
    """An interned variable: namespace plus structured index tuple.

    Index elements are nonnegative ints or short ASCII identifiers (e.g.
    ("w", (1, 4, "top"))), so that parse_var(v.name) is v.  Instances are
    interned and cannot be copied, so equality is identity and a Var hashes
    by identity; _key gives the order.
    """

    __slots__ = ("ns", "idx", "name", "_key")
    _cache: dict = {}

    def __new__(cls, ns: str, *idx):
        cache_key = (ns, idx)
        cached = cls._cache.get(cache_key)
        if cached is not None:
            return cached
        if ns not in NAMESPACES:
            raise ValueError(f"unknown variable namespace {ns!r}")
        if not idx:
            raise ValueError("variable index must be nonempty")
        for e in idx:
            _check_index_element(ns, idx, e)
        idx = tuple(int(e) if isinstance(e, int) else e for e in idx)  # True is 1
        self = object.__new__(cls)
        self.ns = ns
        self.idx = idx
        if len(idx) == 1 and isinstance(idx[0], int):
            self.name = f"{ns}{idx[0]}"
        else:
            self.name = ns + "_" + "_".join(str(e) for e in idx)
        self._key = (ns, tuple(_elem_key(e) for e in idx))
        cls._cache[cache_key] = self
        return self

    def __repr__(self):
        return f"Var({self.name})"

    def __str__(self):
        return self.name

    def __lt__(self, other):
        return self._key < other._key

    def __le__(self, other):
        return self._key <= other._key

    def __gt__(self, other):
        return self._key > other._key

    def __ge__(self, other):
        return self._key >= other._key


def parse_var(name: str) -> Var:
    """Parse a variable name produced by Var.name back into that Var."""
    for ns in NAMESPACES:
        if not name.startswith(ns):
            continue
        rest = name[len(ns):]
        if rest.isascii() and rest.isdigit():
            idx = (int(rest),)
        elif rest.startswith("_") and len(rest) > 1:
            idx = tuple(int(p) if p.isascii() and p.isdigit() else p
                        for p in rest[1:].split("_"))
        else:
            continue
        try:
            v = Var(ns, *idx)
        except ValueError:
            break
        if v.name == name:
            return v
        break
    raise ValueError(f"cannot parse variable name {name!r}")


# ---------------------------------------------------------------------------
# Packed exponent vectors.

_FIELD = 16                              # bits per variable slot
_FIELD_MASK = (1 << _FIELD) - 1
_EXP_MAX = (1 << (_FIELD - 1)) - 1       # the top bit of a field is its guard bit


class _SlotTable:
    """Slot assignment of one run, plus masks covering every assigned slot.

    Slots and masks only grow, and a Var's offset is published after the
    masks cover it, so a reader never sees a monomial its masks miss.
    """

    def __init__(self):
        self.vars: list = []     # slot -> Var
        self.offsets: dict = {}  # Var -> bit offset of its field
        self.fill = 0            # _EXP_MAX in every field
        self.guard = 0           # the guard bit of every field
        self._lock = threading.Lock()

    def offset(self, v: Var) -> int:
        off = self.offsets.get(v)
        if off is None:
            with self._lock:
                off = self.offsets.get(v)
                if off is None:
                    off = len(self.vars) * _FIELD
                    self.vars.append(v)
                    self.fill |= _EXP_MAX << off
                    self.guard |= 1 << (off + _FIELD - 1)
                    self.offsets[v] = off
        return off


_PROCESS_SLOTS = _SlotTable()
_CURRENT_SLOTS = contextvars.ContextVar("ipscert_slots", default=_PROCESS_SLOTS)


@contextmanager
def fresh_slots():
    """Pack the polynomials a block creates in a new, empty slot table.

    Polynomials made inside the block stay valid after it, and mix with
    polynomials of any other table.
    """
    token = _CURRENT_SLOTS.set(_SlotTable())
    try:
        yield
    finally:
        _CURRENT_SLOTS.reset(token)


def _fields(m: int) -> list:
    """(offset, exponent) of every variable in a packed monomial."""
    out = []
    while m:
        low = (m & -m).bit_length() - 1
        off = low - low % _FIELD
        e = (m >> off) & _FIELD_MASK
        out.append((off, e))
        m -= e << off
    return out


def _repack(p: "SparsePoly", tab: _SlotTable) -> dict:
    """The terms of p with their monomials packed in tab."""
    slot_vars = p._tab.vars
    out = {}
    for m, c in p._t.items():
        key = 0
        for off, e in _fields(m):
            key |= e << tab.offset(slot_vars[off // _FIELD])
        out[key] = c
    return out


def _check_exponents(a: dict, b: dict, tab: _SlotTable) -> None:
    """Raise ResourceLimitError if some product monomial of a and b, both
    packed in tab, would carry an exponent past _EXP_MAX."""
    # The bitwise or of a polynomial's monomials bounds every exponent in
    # it field by field, and adding two such bounds sets a guard bit only
    # if an exponent might overflow; then the true maxima decide.
    if not (reduce(or_, a, 0) + reduce(or_, b, 0)) & tab.guard:
        return
    top_a, top_b = _max_exponents(a), _max_exponents(b)
    over = [tab.vars[off // _FIELD] for off in top_a.keys() & top_b.keys()
            if top_a[off] + top_b[off] > _EXP_MAX]
    if over:
        v = min(over, key=lambda v: v._key)
        raise ResourceLimitError(
            f"exponent of {v.name} in a product would exceed {_EXP_MAX}")


def _max_exponents(t: dict) -> dict:
    top: dict = {}
    for m in t:
        for off, e in _fields(m):
            if e > top.get(off, 0):
                top[off] = e
    return top


# ---------------------------------------------------------------------------
# Coefficients: integer numerators over one positive denominator.

def _coerce(value) -> tuple:
    """(numerator, positive denominator) of an int or a Fraction."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


def _canonical(num: dict, d: int, tab: _SlotTable) -> "SparsePoly":
    """The polynomial num / d, d > 0, packed in tab, adopting num: zero
    numerators dropped and d divided out of the numerators as far as it goes."""
    if 0 in num.values():
        num = {m: n for m, n in num.items() if n}
    if d != 1:
        g = gcd(d, *num.values())
        if g != 1:
            d //= g
            num = {m: n // g for m, n in num.items()}
    return SparsePoly._raw(num, d, tab)


class _Accumulator:
    """A running sum of polynomials and of products of polynomials.

    Everything is summed in place into one dict of integer numerators over
    a common denominator, the form SparsePoly keeps, so no partial sum is
    copied.  Zero entries stay until result(), which hands the dict to the
    polynomial it returns; the accumulator is spent after that.  The sum is
    packed in tab, by default the current slot table.

    A product runs row by row of its shorter factor, unless both factors
    have one monomial set of more than one term (a square, or the instance
    f' + s times the functional refutation c1*f' + c0): then each unordered
    pair {i, j} of monomials is summed once, with a_i*b_j + a_j*b_i, and
    the diagonal with a_i*b_i.  Both keep the same guards.
    """

    __slots__ = ("num", "den", "tab")

    def __init__(self, tab: _SlotTable | None = None):
        self.num: dict = {}
        self.den = 1
        self.tab = _CURRENT_SLOTS.get() if tab is None else tab

    def _factor(self, d: int) -> int:
        """Make den a multiple of d and return den // d."""
        den = self.den
        if den % d:
            new = lcm(den, d)
            k = new // den
            self.num = {m: n * k for m, n in self.num.items()}
            self.den = den = new
        return den // d

    def add(self, p: "SparsePoly") -> None:
        tab = self.tab
        items = p._t if p._tab is tab else _repack(p, tab)
        if not self.num:
            self.den = p._d
            self.num.update(items)
            return
        k = self._factor(p._d)
        num = self.num
        get = num.get
        for m, n in items.items():
            num[m] = get(m, 0) + n * k
        if len(num) > TERM_GUARD:
            raise ResourceLimitError("sum would exceed the dense-size guard")

    def add_product(self, p: "SparsePoly", q: "SparsePoly") -> None:
        a, b = p._t, q._t
        if not a or not b:
            return
        if len(a) * len(b) > TERM_GUARD:
            raise ResourceLimitError(
                f"product projects to {len(a)}*{len(b)} terms, over the dense-size guard")
        tab = self.tab
        if p._tab is not tab:
            a = _repack(p, tab)
        if q._tab is not tab:
            b = _repack(q, tab)
        _check_exponents(a, b, tab)
        if len(a) == len(b) > 1 and (a is b or a.keys() == b.keys()):
            self._add_shared(a, b, p._d * q._d)
        else:
            self._add_rows(a, b, p._d * q._d)
        if len(self.num) > TERM_GUARD:
            raise ResourceLimitError("sum would exceed the dense-size guard")

    def _add_rows(self, a: dict, b: dict, d: int) -> None:
        """Add the product of a and b over d, row by row of the shorter."""
        if len(a) > len(b):
            a, b = b, a
        rows = iter(a.items())
        if not self.num:
            # One monomial times distinct monomials gives distinct
            # monomials, so the first row needs no lookups.
            self.den = d
            ma, ca = next(rows)
            self.num = {ma + mb: ca * cb for mb, cb in b.items()}
        else:
            k = self._factor(d)
            if k != 1:
                rows = ((ma, ca * k) for ma, ca in rows)
        num = self.num
        get = num.get
        for ma, ca in rows:
            for mb, cb in b.items():
                m = ma + mb
                num[m] = get(m, 0) + ca * cb

    def _add_shared(self, a: dict, b: dict, d: int) -> None:
        """Add the product of a and b over d, two numerator dicts on one
        monomial set: each unordered pair {i, j} of monomials once, with
        a_i*b_j + a_j*b_i, the diagonal {i, i} with a_i*b_i.  That halves
        the dict lookups, each of which hashes a wide packed monomial."""
        if self.num:
            k = self._factor(d)
        else:
            k, self.den = 1, d
        num = self.num
        get = num.get
        done = []                # (m_j, k*a_j, b_j) of the rows before
        for mi, ai in a.items():
            ai *= k
            bi = b[mi]
            m = mi + mi
            num[m] = get(m, 0) + ai * bi
            for mj, aj, bj in done:
                m = mi + mj
                num[m] = get(m, 0) + ai * bj + aj * bi
            done.append((mi, ai, bi))

    def result(self) -> "SparsePoly":
        return _canonical(self.num, self.den, self.tab)


class SparsePoly:
    """Immutable sparse polynomial: _t maps each monomial, packed in the
    slot table _tab, to a nonzero int numerator over the one positive
    denominator _d, with gcd(_d, *numerators) == 1 (so the zero polynomial
    has _d == 1)."""

    __slots__ = ("_t", "_d", "_tab")

    def __init__(self):
        raise TypeError("make a SparsePoly with zero, constant, variable, "
                        "ring operations or parse_poly")

    @classmethod
    def _raw(cls, terms: dict, d: int, tab: _SlotTable) -> "SparsePoly":
        # Internal: terms over d already canonical and packed in tab, adopt without copying.
        self = object.__new__(cls)
        self._t = terms
        self._d = d
        self._tab = tab
        return self

    @classmethod
    def zero(cls) -> "SparsePoly":
        return cls._raw({}, 1, _CURRENT_SLOTS.get())

    @classmethod
    def constant(cls, value) -> "SparsePoly":
        n, d = _coerce(value)
        return cls._raw({0: n}, d, _CURRENT_SLOTS.get()) if n else cls.zero()

    @classmethod
    def variable(cls, v: Var) -> "SparsePoly":
        tab = _CURRENT_SLOTS.get()
        return cls._raw({1 << tab.offset(v): 1}, 1, tab)

    def items(self) -> Iterator[tuple]:
        """Each term once as ((Var, exponent) pairs, Fraction), the pairs in
        variable order, the terms in the canonical order of the text form:
        lexicographic on the pairs, a variable by its order."""
        slot_vars = self._tab.vars
        keyed = []
        for m, n in self._t.items():
            pairs = sorted([(slot_vars[off // _FIELD], e) for off, e in _fields(m)],
                           key=lambda ve: ve[0]._key)
            keyed.append(([(v._key, e) for v, e in pairs], tuple(pairs), n))
        keyed.sort(key=lambda kpn: kpn[0])
        d = self._d
        for _, pairs, n in keyed:
            yield pairs, Fraction(n) if d == 1 else Fraction(n, d)

    def __len__(self):
        return len(self._t)

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = SparsePoly.constant(other)
        tab = self._tab
        return self._d == other._d and \
            self._t == (other._t if other._tab is tab else _repack(other, tab))

    __hash__ = None

    def __repr__(self):
        return f"SparsePoly({format_poly(self)!r})"

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if len(self._t) + len(other._t) > TERM_GUARD:
            raise ResourceLimitError("sum would exceed the dense-size guard")
        acc = _Accumulator(self._tab)
        acc.add(self)
        acc.add(other)
        return acc.result()

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly._raw({m: -n for m, n in self._t.items()}, self._d, self._tab)

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        acc = _Accumulator(self._tab)
        acc.add_product(self, other)
        return acc.result()

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        a, b = _coerce(other)
        if a < 0:
            a, b = -a, -b
        return _canonical({m: n * b for m, n in self._t.items()}, self._d * a, self._tab)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = SparsePoly._raw({0: 1}, 1, self._tab)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def variables(self) -> tuple:
        slot_vars = self._tab.vars
        found = [slot_vars[off // _FIELD] for off, _ in _fields(reduce(or_, self._t, 0))]
        return tuple(sorted(found, key=lambda v: v._key))

    def degree_in(self, v: Var) -> int:
        off = self._tab.offsets.get(v)
        if off is None or not self._t:
            return 0
        return max((m >> off) & _FIELD_MASK for m in self._t)

    def is_multilinear(self) -> bool:
        # A field above 1 has a value bit set above the lowest bit of the field.
        tab = self._tab
        high = tab.fill - (tab.guard >> (_FIELD - 1))
        return not any(m & high for m in self._t)

    def restrict(self, v: Var, value) -> "SparsePoly":
        """Substitute a single variable by a rational constant (an int or a
        Fraction)."""
        a, b = _coerce(value)
        off = self._tab.offsets.get(v)
        if off is None:
            return self
        # With value = a/b, a term n/d * v^e becomes n * a^e * b^(top - e)
        # over d * b^top, top the degree in v.
        top = self.degree_in(v)
        out: dict = {}
        get = out.get
        for m, n in self._t.items():
            e = (m >> off) & _FIELD_MASK
            s = a ** e * b ** (top - e)
            if s:
                m -= e << off
                out[m] = get(m, 0) + n * s
        return _canonical(out, self._d * b ** top, self._tab)

    def substitute(self, mapping: Mapping[Var, "SparsePoly"]) -> "SparsePoly":
        """Substitute variables by polynomials (unmapped variables unchanged)."""
        tab = self._tab
        slot_vars = tab.vars
        acc = _Accumulator(tab)
        for m, n in self._t.items():
            term = _canonical({0: n}, self._d, tab)
            for off, e in _fields(m):
                image = mapping.get(slot_vars[off // _FIELD])
                if image is None:
                    image = SparsePoly._raw({1 << off: 1}, 1, tab)
                term = term * image ** e
            acc.add(term)
        return acc.result()

    def multilinear_reduce(self) -> "SparsePoly":
        """Clamp every exponent to 1; agrees with self on Boolean points."""
        # Adding _EXP_MAX to a field sets its guard bit iff the field is
        # nonzero, and never carries out of the field.
        tab = self._tab
        fill, guard, shift = tab.fill, tab.guard, _FIELD - 1
        out: dict = {}
        get = out.get
        for m, n in self._t.items():
            key = ((m + fill) & guard) >> shift
            out[key] = get(key, 0) + n
        return _canonical(out, self._d, tab)

    def multilinear_product(self, q: "SparsePoly") -> "SparsePoly":
        """(self * q).multilinear_reduce(), each product reduced as it is formed:
        with one bit per variable, multilinear monomials multiply by or.

        Over the k variables the two factors span, the product is either a
        loop over every pair of terms or, when _CUBE_COST says the cube is
        cheaper, on the 2^k subsets: the zeta transforms of the two factors,
        multiplied pointwise, then the Moebius transform (Bjorklund,
        Husfeldt, Kaski & Koivisto, STOC 2007).  Both are exact and give the
        same polynomial."""
        if len(self) * len(q) > TERM_GUARD:
            raise ResourceLimitError(
                f"product projects to {len(self)}*{len(q)} terms, over the dense-size guard")
        tab = self._tab
        if q._tab is not tab:
            q = SparsePoly._raw(_repack(q, tab), q._d, tab)
        p, q = (x if x.is_multilinear() else x.multilinear_reduce() for x in (self, q))
        units = [1 << off for off, _ in _fields(reduce(or_, [*p._t, *q._t], 0))]
        if len(p) * len(q) > _CUBE_COST << len(units):
            num = _cube_product(p._t, q._t, units)
        else:
            num = _pair_product(p._t, q._t)
        return _canonical(num, p._d * q._d, tab)

    def subset_masks(self, vars_) -> tuple:
        """(numerators, d): the int numerators over the one denominator d,
        keyed by the set of positions in vars_ of each term's variables, as
        a bitmask; the polynomial must be multilinear over variables drawn
        from vars_."""
        offsets = self._tab.offsets
        bit = {1 << offsets[v]: 1 << k for k, v in enumerate(vars_) if v in offsets}
        try:
            return _gather(self._t, bit), self._d
        except KeyError:
            raise ValueError(
                "subset_masks needs a multilinear polynomial over the given variables") from None


def _gather(t: dict, bit: Mapping[int, int]) -> dict:
    """t with each monomial re-keyed by the or of bit[low] over its set bits low."""
    out = {}
    for m, c in t.items():
        key = 0
        while m:
            low = m & -m
            key |= bit[low]
            m ^= low
        out[key] = c
    return out


# The cost rule of multilinear_product over k variables: the cube when the
# pairs of terms number more than _CUBE_COST * 2^k.  Timed on random
# operands for k = 4 to 14 (CPython 3.11, 2 cores), one subset on the cube
# (its share of the key list, the gathers, three transforms and the
# pointwise product) costs about as much as five to eight pairs.
_CUBE_COST = 6


def _pair_product(a: dict, b: dict) -> dict:
    """The multilinear product of two multilinear numerator dicts, every
    pair of terms: one bit per variable, so monomials multiply by or."""
    out: dict = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma | mb
            out[m] = get(m, 0) + ca * cb
    return out


def _cube_product(a: dict, b: dict, units: list) -> dict:
    """_pair_product's result on the cube: each factor as its 2^k
    numerators by subset, zeta-transformed, multiplied pointwise and
    Moebius-transformed back; the nonzero entries, on packed keys."""
    keys = [0]                               # keys[s]: the packed monomial of subset s
    for u in units:
        keys += [m | u for m in keys]
    index = dict(zip(keys, range(len(keys))))
    za, zb = [0] * len(keys), [0] * len(keys)
    for t, z in ((a, za), (b, zb)):
        for m, c in t.items():
            z[index[m]] = c
        subset_transform(z, add)
    h = list(map(mul, za, zb))
    subset_transform(h, sub)
    return {m: c for m, c in zip(keys, h) if c}


def subset_transform(a: list, op) -> None:
    """The zeta (op = add) or Moebius (op = sub) transform of a, in place:
    a holds 2^k values by subset bitmask, and afterwards a[S] is the op-fold
    of a[T] over the T inside S (for sub, with the sign of |S - T|).  One
    pass per variable applies op to the half of every block with the
    variable at 1 and the half with it at 0."""
    size = len(a)
    step = 1
    while step < size:
        span = 2 * step
        if span * step >= size:
            # Few wide blocks: one slice per block.
            for lo in range(0, size, span):
                a[lo + step:lo + span] = map(op, a[lo + step:lo + span], a[lo:lo + step])
        else:
            # Many narrow blocks: one strided slice per offset in the block.
            for off in range(step):
                a[step + off::span] = map(op, a[step + off::span], a[off::span])
        step = span


def elementary_sum(terms: list, coeffs: list) -> "SparsePoly":
    """sum_k coeffs[k] * e_k(terms), multilinearized, for m monic monomials
    terms and m + 1 rational coeffs: the term of a subset S of the terms is
    coeffs[|S|] times the or of their multilinear monomials.  Distinct
    subsets must give distinct monomials, as they do when each term has a
    variable of its own, so the 2^m subsets, listed by doubling with their
    sizes, are the 2^m terms and no monomial is looked up twice."""
    m = len(terms)
    if len(coeffs) != m + 1:
        raise ValueError(f"{m} terms need {m + 1} coefficients, got {len(coeffs)}")
    if 1 << m > TERM_GUARD:
        raise ResourceLimitError(f"e_0..e_{m} of {m} terms have 2^{m} terms, "
                                 "over the dense-size guard")
    tab = _CURRENT_SLOTS.get()
    fill, guard, shift = tab.fill, tab.guard, _FIELD - 1
    keys, sizes = [0], [0]
    for t in terms:
        items = t._t if t._tab is tab else _repack(t, tab)
        if t._d != 1 or list(items.values()) != [1]:
            raise ValueError(f"elementary_sum takes monic monomials, got {format_poly(t)}")
        (key,) = items
        key = ((key + fill) & guard) >> shift
        keys += [k | key for k in keys]
        sizes += [s + 1 for s in sizes]
    fracs = [_coerce(c) for c in coeffs]
    d = lcm(*[cd for _, cd in fracs])
    nums = [cn * (d // cd) for cn, cd in fracs]
    num = dict(zip(keys, map(nums.__getitem__, sizes)))
    if len(num) < len(keys):
        raise ValueError("elementary_sum needs distinct monomials for distinct subsets")
    return _canonical(num, d, tab)


def _as_poly(x):
    if isinstance(x, SparsePoly):
        return x
    if isinstance(x, (int, Fraction)):
        return SparsePoly.constant(x)
    return NotImplemented


def frac_mod(q: Fraction, prime: int) -> int:
    """Transport p/q into GF(prime); errors if the denominator vanishes mod prime."""
    den = q.denominator % prime
    if den == 0:
        raise ZeroDivisionError(
            f"denominator {q.denominator} of constant {q} is divisible by prime {prime}")
    return q.numerator % prime * pow(den, -1, prime) % prime


def format_frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_frac(text: str) -> Fraction:
    """A rational written p/q, an integer or a decimal, in ASCII.  Exponent
    notation is refused: Fraction would expand 10**e, however large e is.
    So are the non-ASCII digits and '_' separators Fraction also reads."""
    text = text.strip()
    if re.search(r"[eE][-+]?\d", text):
        raise ValueError(f"exponent notation in {text!r}: write p/q")
    if not text.isascii() or "_" in text:
        raise ValueError(f"non-ASCII character or '_' in {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_poly(p: SparsePoly) -> str:
    """Canonical text form: `p/q * v1^e1 * v2 + ...`, terms in monomial order."""
    if not p:
        return "0"
    parts = []
    for m, c in p.items():
        toks = [format_frac(c)]
        for v, e in m:
            toks.append(v.name if e == 1 else f"{v.name}^{e}")
        parts.append(" * ".join(toks))
    return " + ".join(parts)


def parse_poly(text: str) -> SparsePoly:
    """Parse the canonical text form back into a polynomial.  A variable may
    repeat within a term (its exponents add) and a monomial across terms."""
    text = text.strip()
    if text == "0":
        return SparsePoly.zero()
    tab = _CURRENT_SLOTS.get()
    terms = []
    for chunk in text.split(" + "):
        toks = [t.strip() for t in chunk.split("*")]
        coeff = parse_frac(toks[0])
        m = 0
        for tok in toks[1:]:
            name, caret, exp = tok.partition("^")
            exp = exp.strip() if caret else "1"
            off = tab.offset(parse_var(name.strip()))
            e = int(exp) if exp.isascii() and exp.isdigit() else -1
            if not 0 <= e <= _EXP_MAX - ((m >> off) & _FIELD_MASK):
                raise ValueError(f"bad exponent in {tok!r}: a term's exponent of a "
                                 f"variable is an integer from 0 to {_EXP_MAX}")
            m += e << off
        terms.append((m, coeff))
    d = lcm(*[c.denominator for _, c in terms])
    num: dict = {}
    for m, c in terms:
        num[m] = num.get(m, 0) + c.numerator * (d // c.denominator)
    return _canonical(num, d, tab)


def take_slot(v: Var) -> None:
    """Give v its slot in the current table now, unless it has one, as the
    first polynomial that mentions v would."""
    _CURRENT_SLOTS.get().offset(v)


def boolean_axiom(v: Var) -> SparsePoly:
    """The Boolean axiom v^2 - v."""
    tab = _CURRENT_SLOTS.get()
    off = tab.offset(v)
    return SparsePoly._raw({2 << off: 1, 1 << off: -1}, 1, tab)
