import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (FOLD_VALUES, assert_folded, assert_valid, integer_row, mono, poly_of,
                     sparse_rows)

from ipscert.circuit import expand, partial_evaluate
from ipscert.instances import gadgeted_ry_circuit, interval_wvarsets, uvar
from ipscert.poly import SparsePoly, Var
from ipscert.rank import (
    Partition,
    _echelon,
    balanced_partitions,
    exact_rank,
    fullrank_witness,
    rank_matrix,
)

U = {i: SparsePoly.variable(uvar(i)) for i in range(1, 9)}

# SHA-256 of fullrank_witness on every balanced partition, one line per
# partition ("<partition><name>=<value>;..."), taken before the witness read
# its splits and address gadgets from the interval's WVarSet; n = 5 and 6
# were taken before it tested balance by prefix sums over the sides.
WITNESS_SHA256 = {
    1: "1c06cea3bf9997a33f7016c921deb3d701978b89affe9a0f608c4e210024ca2d",
    2: "5d759b0783de6cd6a85e014c5ab1e8dfc648b91d3b219084e1e14bbb648b4725",
    3: "7280748bc44e7951f74a2e98c0634b65a713db292bc744c2eed382069d058239",
    4: "79c683f8ba1992c8c09e1bdc55226209ac1ac5d4b72b23428514ad510071ea1a",
    5: "363efcdcbac840c10442b07d87fbf8e7d181f9e1e3fb2cc2fca661a50d5c94ea",
    6: "d78bee07c62170db53b0985b8c7b36dbf463b715927b4d82ea3ce8dc956fea46",
}


def substituted(n, witness):
    c, _ = gadgeted_ry_circuit(n)
    return expand(partial_evaluate(c, witness))


def test_the_witness_folds_p_at_n_6_to_few_gates():
    c, wsets = gadgeted_ry_circuit(6)
    part = next(balanced_partitions([uvar(k) for k in range(1, 13)]))
    folded = partial_evaluate(c, fullrank_witness(wsets, part))
    assert len(c.gates) == 996 and len(folded.gates) < 100
    assert_folded(folded)
    assert exact_rank(rank_matrix(expand(folded), part)) == 64


def test_p_built_under_the_witness_is_p_folded_by_it():
    # rank builds P with the witness folded in; on every balanced partition
    # for n <= 6 that is partial_evaluate(P, witness) up to gate order: the
    # same polynomial, every gate folded and reachable.
    for n in range(1, 7):
        c, wsets = gadgeted_ry_circuit(n)
        for part in balanced_partitions([uvar(k) for k in range(1, 2 * n + 1)]):
            w = fullrank_witness(wsets, part)
            built, built_wsets = gadgeted_ry_circuit(n, w)
            assert built_wsets == wsets
            assert_folded(built)
            assert_valid(built)
            assert expand(built) == expand(partial_evaluate(c, w))


def test_p_built_under_partial_control_assignments_is_p_folded_by_them():
    # Any assignment of control variables, some left free, folds as
    # partial_evaluate folds it: a free 1 - w stays CircuitBuilder.complement's
    # gates, and a product a zero factor kills leaves no gate behind.
    rng = random.Random(35)
    for n in (1, 2, 3):
        c, wsets = gadgeted_ry_circuit(n)
        controls = [v for ws in wsets for v in (ws.w_top, ws.w_leaf, *ws.address_vars)]
        for _ in range(25):
            part = {v: rng.choice(FOLD_VALUES) for v in controls if rng.random() < 0.6}
            built, _ = gadgeted_ry_circuit(n, part)
            assert_folded(built)
            assert_valid(built)
            assert expand(built) == expand(partial_evaluate(c, part))


def test_partition_parse_and_format():
    p = Partition.parse("u1,u3|u2,u4")
    assert p.y_side == (uvar(1), uvar(3))
    assert p.z_side == (uvar(2), uvar(4))
    assert p.format() == "u1,u3|u2,u4"


def test_partition_validation():
    with pytest.raises(ValueError, match="disjoint"):
        Partition(y_side=(uvar(1),), z_side=(uvar(1),))
    with pytest.raises(ValueError, match="no variable repeated"):
        Partition(y_side=(uvar(1), uvar(1)), z_side=(uvar(2), uvar(3)))
    with pytest.raises(ValueError, match="equal"):
        Partition(y_side=(uvar(1), uvar(2)), z_side=(uvar(3),))


def test_rank_matrix_zero_polynomial():
    p = Partition.parse("u1|u2")
    m = rank_matrix(SparsePoly.zero(), p)
    assert m == sparse_rows([[0, 0], [0, 0]]) == []
    assert exact_rank(m) == 0


def test_rank_matrix_base_case():
    p = Partition.parse("u1|u2")
    f = (1 + U[1] * U[2]) * Fraction(1, 2)
    m = rank_matrix(f, p)
    assert m == sparse_rows([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    assert exact_rank(m) == 2


def test_rank_matrix_sum_case():
    p = Partition.parse("u1|u2")
    m = rank_matrix(U[1] + U[2], p)
    assert m == sparse_rows([[0, 1], [1, 0]])
    assert exact_rank(m) == 2


def check_rank_matrix_reads_the_numerators(f, p):
    """subset_masks gives f's numerators over its one denominator d, and
    rank_matrix is d times the dense coefficient matrix read from items()."""
    vars_ = p.y_side + p.z_side
    numerators, d = f.subset_masks(vars_)
    assert d > 0 and math.gcd(d, *numerators.values()) == 1
    masks = {sum(1 << vars_.index(v) for v, _ in m): c for m, c in f.items()}
    assert masks == {mask: Fraction(n, d) for mask, n in numerators.items()}
    n = len(p.y_side)
    dense = [[Fraction(0)] * (1 << n) for _ in range(1 << n)]
    for mask, c in masks.items():
        dense[mask & ((1 << n) - 1)][mask >> n] = c
    rows = rank_matrix(f, p)
    assert rows == [{c: d * x for c, x in enumerate(row) if x} for row in dense if any(row)]
    assert all(type(x) is int for row in rows for x in row.values())
    assert exact_rank(rows) == rank_by_rational_elimination(dense)


@st.composite
def multilinear_polys_and_partitions(draw):
    """A multilinear polynomial with rational coefficients over u1..u2n,
    n <= 3, and a balanced partition of its variables."""
    n = draw(st.integers(1, 3))
    us = [uvar(k) for k in range(1, 2 * n + 1)]
    terms = draw(st.dictionaries(
        st.integers(0, (1 << 2 * n) - 1),
        st.fractions(min_value=-9, max_value=9, max_denominator=12), max_size=12))
    f = poly_of({mono((u, 1) for k, u in enumerate(us) if mask >> k & 1): c
                 for mask, c in terms.items()})
    order = draw(st.permutations(us))
    return f, Partition(y_side=tuple(sorted(order[:n])), z_side=tuple(sorted(order[n:])))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(multilinear_polys_and_partitions())
def test_rank_matrix_is_the_denominator_times_the_coefficient_matrix(case):
    check_rank_matrix_reads_the_numerators(*case)


def test_rank_matrix_of_a_polynomial_with_denominator_six():
    f = U[1] * U[3] / 2 + U[2] * U[4] / 3 + U[1] * U[2] * U[3]
    p = Partition.parse("u1,u2|u3,u4")
    assert f.subset_masks(p.y_side + p.z_side)[1] == 6
    assert rank_matrix(f, p) == [{1: 3}, {2: 2}, {1: 6}]
    check_rank_matrix_reads_the_numerators(f, p)


def test_rank_matrix_rejects_nonmultilinear():
    p = Partition.parse("u1|u2")
    with pytest.raises(ValueError, match="multilinear"):
        rank_matrix(U[1] ** 2, p)


def test_rank_matrix_rejects_foreign_variable():
    p = Partition.parse("u1|u2")
    with pytest.raises(ValueError, match="outside the partition"):
        rank_matrix(SparsePoly.variable(Var("w", 1, 2, "top")), p)


def test_exact_rank_identity():
    assert exact_rank(sparse_rows([[1, 0], [0, 1]])) == 2


def test_exact_rank_outer_product():
    rng = random.Random(43)
    u = [Fraction(rng.randint(-9, 9)) for _ in range(6)]
    v = [Fraction(rng.randint(1, 9)) for _ in range(6)]
    m = [[a * b for b in v] for a in u]
    assert exact_rank(sparse_rows(m)) == 1


def test_exact_rank_planted_nullspace():
    rng = random.Random(47)
    # 8x8 = B(8x5) * C(5x8): rank 5, nullspace dimension 3
    while True:
        b = [[Fraction(rng.randint(-4, 4)) for _ in range(5)] for _ in range(8)]
        c = [[Fraction(rng.randint(-4, 4)) for _ in range(8)] for _ in range(5)]
        if exact_rank(sparse_rows(b)) == 5 and exact_rank(sparse_rows(c)) == 5:
            break
    m = [[sum(b[i][k] * c[k][j] for k in range(5)) for j in range(8)] for i in range(8)]
    assert exact_rank(sparse_rows(m)) == 5


def test_exact_rank_with_rational_entries():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
    assert exact_rank(sparse_rows(m)) == 1


def rank_by_rational_elimination(rows):
    """Independent oracle: plain Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, n_rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = Fraction(1) / m[row][col]
        for r in range(row + 1, n_rows):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n_cols):
                    m[r][c] -= factor * m[row][c]
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


def test_exact_rank_against_rational_elimination_oracle():
    rng = random.Random(71)
    for trial in range(120):
        n_rows = rng.randint(1, 8)
        n_cols = rng.randint(1, 8)
        density = rng.choice((0.2, 0.5, 0.9))
        m = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
              if rng.random() < density else Fraction(0)
              for _ in range(n_cols)] for _ in range(n_rows)]
        # plant duplicated / scaled rows to force degeneracy
        if n_rows >= 2 and rng.random() < 0.5:
            src, dst = rng.sample(range(n_rows), 2)
            scale = Fraction(rng.randint(-3, 3))
            m[dst] = [scale * x for x in m[src]]
        assert exact_rank(sparse_rows(m)) == rank_by_rational_elimination(m)


def random_rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))


def sparse_test_matrix(rng, n_rows, n_cols, density):
    """A random rational matrix with planted zero rows, zero columns and
    dependent rows that are rational combinations of several other rows."""
    m = [[random_rational(rng) if rng.random() < density else Fraction(0)
          for _ in range(n_cols)] for _ in range(n_rows)]
    for _ in range(rng.randint(0, 2)):
        m[rng.randrange(n_rows)] = [Fraction(0)] * n_cols
    for _ in range(rng.randint(0, 2)):
        col = rng.randrange(n_cols)
        for row in m:
            row[col] = Fraction(0)
    for _ in range(rng.randint(0, n_rows // 3)):
        if n_rows < 3:
            break
        dst, *srcs = rng.sample(range(n_rows), rng.randint(3, min(4, n_rows)))
        m[dst] = [sum((random_rational(rng) * m[s][c] for s in srcs), Fraction(0))
                  for c in range(n_cols)]
    return m


def test_exact_rank_sparse_shapes_against_rational_elimination_oracle():
    rng = random.Random(73)
    ranks = set()
    for trial in range(160):
        shape = rng.choice(("square", "wide", "tall"))
        a, b = rng.randint(1, 24), rng.randint(1, 24)
        if shape == "square":
            b = a
        elif (shape == "wide") == (a > b):
            a, b = b, a
        density = rng.choice((0.02, 0.05, 0.1, 0.3, 0.6, 1.0))
        m = sparse_test_matrix(rng, a, b, density)
        r = exact_rank(sparse_rows(m))
        assert r == rank_by_rational_elimination(m), (shape, a, b, density)
        ranks.add(r)
    assert len(ranks) > 10


def test_exact_rank_of_permutation_matrices_with_rational_entries():
    rng = random.Random(79)
    for size in (1, 2, 5, 16, 24):
        for _ in range(4):
            perm = list(range(size))
            rng.shuffle(perm)
            m = [[Fraction(0)] * size for _ in range(size)]
            for i, j in enumerate(perm):
                m[i][j] = random_rational(rng)
            assert exact_rank(sparse_rows(m)) == size
            zeroed = rng.sample(range(size), rng.randint(0, size))
            for i in zeroed:
                m[i][perm[i]] = Fraction(0)
            assert exact_rank(sparse_rows(m)) == size - len(zeroed) == \
                rank_by_rational_elimination(m)
            # a repeated row, rescaled, adds nothing
            if size - len(zeroed):
                live = next(i for i in range(size) if i not in zeroed)
                m.append([x * Fraction(-3, 5) for x in m[live]])
                assert exact_rank(sparse_rows(m)) == size - len(zeroed)


def test_exact_rank_of_sparse_rows_matches_the_dense_oracle():
    rng = random.Random(89)
    assert exact_rank([]) == rank_by_rational_elimination([]) == 0
    for trial in range(200):
        n_rows, n_cols = rng.randint(1, 10), rng.randint(1, 10)
        if trial % 2:
            m = [[rng.randint(-5, 5) for _ in range(n_cols)] for _ in range(n_rows)]
        else:
            m = [[random_rational(rng) if rng.random() < 0.6 else 0 for _ in range(n_cols)]
                 for _ in range(n_rows)]
        m[rng.randrange(n_rows)] = [0] * n_cols
        m.append(list(m[rng.randrange(n_rows)]))
        rng.shuffle(m)
        expected = rank_by_rational_elimination(m)
        assert exact_rank(sparse_rows(m)) == expected
        # an empty row is a zero row, and an explicit zero entry is no entry
        assert exact_rank(sparse_rows(m) + [{}]) == expected
        assert exact_rank([dict(enumerate(integer_row(row))) for row in m]) == expected


def test_echelon_rows_are_primitive_with_distinct_leading_columns():
    rng = random.Random(83)
    for _ in range(60):
        m = sparse_test_matrix(rng, rng.randint(1, 12), rng.randint(1, 12),
                               rng.choice((0.1, 0.5, 1.0)))
        basis = _echelon(sparse_rows(m))
        for lead, row in basis.items():
            assert lead == min(row) and all(row.values())
            assert math.gcd(*row.values()) == 1
        # the basis spans the rows: appending it leaves the rank unchanged
        combined = m + [[Fraction(row.get(c, 0)) for c in range(len(m[0]))]
                        for row in basis.values()]
        assert rank_by_rational_elimination(combined) == len(basis) == \
            rank_by_rational_elimination(m)


def test_witness_base_case():
    p = Partition.parse("u1|u2")
    w = fullrank_witness(interval_wvarsets(1), p)
    from ipscert.instances import wvar

    assert w[wvar(1, 2, "top")] == 0
    assert w[wvar(1, 2, "leaf")] == Fraction(1, 2)
    f = substituted(1, w)
    assert f == (1 + U[1] * U[2]) * Fraction(1, 2)
    assert exact_rank(rank_matrix(f, p)) == 2


def test_witness_n2_endpoints_split():
    p = Partition.parse("u1,u3|u2,u4")
    f = substituted(2, fullrank_witness(interval_wvarsets(2), p))
    assert exact_rank(rank_matrix(f, p)) == 4


def test_witness_n2_endpoints_same_side():
    p = Partition.parse("u1,u4|u2,u3")
    f = substituted(2, fullrank_witness(interval_wvarsets(2), p))
    assert exact_rank(rank_matrix(f, p)) == 4


def test_witness_all_partitions_n_le_3():
    for n in (1, 2, 3):
        c, wsets = gadgeted_ry_circuit(n)
        parts = list(balanced_partitions([uvar(k) for k in range(1, 2 * n + 1)]))
        for p in parts:
            w = fullrank_witness(wsets, p)
            f = expand(partial_evaluate(c, w))
            assert f.variables() == tuple(sorted(p.y_side + p.z_side))
            assert exact_rank(rank_matrix(f, p)) == 2 ** n


def test_rank_matrix_of_the_witness_at_n_12_has_one_entry_per_row():
    n = 12
    p = Partition(y_side=tuple(uvar(k) for k in range(1, n + 1)),
                  z_side=tuple(uvar(k) for k in range(n + 1, 2 * n + 1)))
    rows = rank_matrix(substituted(n, fullrank_witness(interval_wvarsets(n), p)), p)
    assert len(rows) == 2 ** n and all(len(row) == 1 for row in rows)
    assert exact_rank(rows) == 2 ** n


@pytest.mark.parametrize("n", sorted(WITNESS_SHA256))
def test_witness_is_pinned(n):
    h, wsets = hashlib.sha256(), interval_wvarsets(n)
    for p in balanced_partitions([uvar(k) for k in range(1, 2 * n + 1)]):
        w = fullrank_witness(wsets, p)
        h.update((p.format() + ";".join(f"{v.name}={x}" for v, x in sorted(w.items()))
                  + "\n").encode())
    assert h.hexdigest() == WITNESS_SHA256[n]


def test_witness_substitution_is_multilinear_in_u():
    p = Partition.parse("u1,u2|u3,u4")
    f = substituted(2, fullrank_witness(interval_wvarsets(2), p))
    assert f.is_multilinear()


def test_witness_rejects_wrong_cover():
    with pytest.raises(ValueError, match="cover"):
        fullrank_witness(interval_wvarsets(2), Partition.parse("u1,u2|u3,u5"))


def test_balanced_partition_count():
    assert len(list(balanced_partitions([uvar(k) for k in range(1, 9)]))) == 35
    assert len(list(balanced_partitions([uvar(k) for k in range(1, 5)]))) == 3


def test_balanced_partitions_reject_an_empty_or_odd_list():
    for count in (0, 1, 3):
        with pytest.raises(ValueError, match=f"not {count}"):
            list(balanced_partitions([uvar(k) for k in range(1, count + 1)]))


def test_rank_bounded_by_full():
    rng = random.Random(53)
    p = Partition.parse("u1,u2|u3,u4")
    for _ in range(10):
        terms = {}
        for _ in range(rng.randint(0, 12)):
            vs = rng.sample([uvar(k) for k in range(1, 5)], rng.randint(0, 4))
            terms[mono((v, 1) for v in vs)] = Fraction(rng.randint(-5, 5))
        f = poly_of(terms)
        assert exact_rank(rank_matrix(f, p)) <= 4


def test_rank_multiplicative_on_disjoint_products():
    rng = random.Random(59)
    p = Partition.parse("u1,u3|u2,u4")
    sub_p1 = Partition.parse("u1|u2")
    sub_p2 = Partition.parse("u3|u4")
    for _ in range(15):
        def rand_ml(vs):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                pick = rng.sample(vs, rng.randint(0, 2))
                terms[mono((v, 1) for v in pick)] = Fraction(rng.randint(-4, 4))
            return poly_of(terms)

        f = rand_ml([uvar(1), uvar(2)])
        g = rand_ml([uvar(3), uvar(4)])
        r_fg = exact_rank(rank_matrix(f * g, p))
        r_f = exact_rank(rank_matrix(f, sub_p1))
        r_g = exact_rank(rank_matrix(g, sub_p2))
        assert r_fg == r_f * r_g


def test_rank_subadditive():
    rng = random.Random(67)
    p = Partition.parse("u1,u2|u3,u4")
    for _ in range(15):
        def rand_ml():
            terms = {}
            for _ in range(rng.randint(0, 10)):
                pick = rng.sample([uvar(k) for k in range(1, 5)], rng.randint(0, 4))
                terms[mono((v, 1) for v in pick)] = Fraction(rng.randint(-4, 4))
            return poly_of(terms)

        f, g = rand_ml(), rand_ml()
        assert exact_rank(rank_matrix(f + g, p)) <= \
            exact_rank(rank_matrix(f, p)) + exact_rank(rank_matrix(g, p))
