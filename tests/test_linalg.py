import random
from itertools import combinations
from math import gcd

import pytest

from surfbound.linalg import (
    cokernel_invariants,
    identity_matrix,
    invert_mod,
    mat_mul_mod,
    nullspace_mod,
    rref_mod,
    smith_normal_form,
)


def mat_vec_mod(m, vec, p):
    # column action m * vec over F_p; an oracle, nothing in the package needs it
    return tuple(sum(mi * vi for mi, vi in zip(row, vec)) % p for row in m)


def det_mod(matrix, p):
    # determinant over F_p by elimination; an oracle for invert_mod
    a = [[e % p for e in row] for row in matrix]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = (det * a[c][c]) % p
        inv = pow(a[c][c], -1, p)
        for i in range(c + 1, n):
            if a[i][c]:
                f = (a[i][c] * inv) % p
                a[i] = [(e - f * g) % p for e, g in zip(a[i], a[c])]
    return det % p


def int_det(matrix):
    # Laplace expansion, exact integers; fine for the tiny oracle sizes here
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * int_det(minor)
    return total


def determinantal_divisors(rows, ncols):
    # d_k = gcd of all k x k minors; the k-th Smith entry is d_k / d_{k-1}
    nrows = len(rows)
    divisors = [1]
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for ris in combinations(range(nrows), k):
            for cjs in combinations(range(ncols), k):
                sub = [[rows[i][j] for j in cjs] for i in ris]
                g = gcd(g, int_det(sub))
        divisors.append(g)
        if g == 0:
            break
    return divisors


def oracle_smith_diagonal(rows, ncols):
    divs = determinantal_divisors(rows, ncols)
    diag = []
    for k in range(1, len(divs)):
        if divs[k] == 0:
            break
        diag.append(divs[k] // divs[k - 1])
    return diag


class TestSmithNormalForm:
    FROZEN = [
        # (rows, ncols, expected nonzero diagonal)
        ([[2, 0], [0, 3]], 2, [1, 6]),
        ([[2, 4, 4]], 3, [2]),
        ([[6, 0], [0, 10]], 2, [2, 30]),
        ([[1, 2], [3, 4]], 2, [1, 2]),
        ([[0, 0], [0, 0]], 2, []),
    ]

    @pytest.mark.parametrize("rows,ncols,expected", FROZEN)
    def test_frozen_diagonals(self, rows, ncols, expected):
        diag = smith_normal_form(rows, ncols)
        assert [d for d in diag if d] == expected

    def test_divisibility_chain(self):
        rng = random.Random(3)
        for _ in range(150):
            nrows = rng.randrange(1, 5)
            ncols = rng.randrange(1, 5)
            rows = [[rng.randrange(-9, 10) for _ in range(ncols)] for _ in range(nrows)]
            diag = smith_normal_form(rows, ncols)
            nz = [d for d in diag if d]
            assert all(d > 0 for d in nz)
            for a, b in zip(nz, nz[1:]):
                assert b % a == 0

    def test_matches_determinantal_divisor_oracle(self):
        rng = random.Random(5)
        for _ in range(120):
            nrows = rng.randrange(1, 4)
            ncols = rng.randrange(1, 4)
            rows = [[rng.randrange(-8, 9) for _ in range(ncols)] for _ in range(nrows)]
            diag = smith_normal_form(rows, ncols)
            assert [d for d in diag if d] == oracle_smith_diagonal(rows, ncols)

    def test_relation_rows_vanish_in_cokernel(self):
        # a row already in the rowspace is a relation that holds in the
        # cokernel, so appending it leaves the diagonal unchanged
        rng = random.Random(9)
        for _ in range(80):
            nrows = rng.randrange(1, 5)
            ncols = rng.randrange(1, 5)
            rows = [[rng.randrange(-7, 8) for _ in range(ncols)] for _ in range(nrows)]
            coefs = [rng.randrange(-3, 4) for _ in rows]
            combo = [sum(c * row[j] for c, row in zip(coefs, rows)) for j in range(ncols)]
            assert smith_normal_form(rows + [combo], ncols) == smith_normal_form(rows, ncols)


class TestCokernel:
    def test_free_when_no_relations(self):
        assert cokernel_invariants([], 3) == (3, ())

    def test_pure_torsion(self):
        assert cokernel_invariants([[2, 0], [0, 4]], 2) == (0, (2, 4))

    def test_drops_unit_factors(self):
        rank, torsion = cokernel_invariants([[1, 0], [0, 5]], 2)
        assert (rank, torsion) == (0, (5,))

    def test_mixed(self):
        rank, torsion = cokernel_invariants([[3, 0, 0]], 3)
        assert (rank, torsion) == (2, (3,))


class TestModP:
    def test_rref_pivots(self):
        reduced, pivots = rref_mod([[2, 4], [1, 2]], 5)
        assert pivots == [0]
        assert reduced[0] == (1, 2)

    def test_nullspace_kills_matrix(self):
        rng = random.Random(13)
        for _ in range(100):
            p = rng.choice([2, 3, 5, 7, 11])
            nrows = rng.randrange(0, 4)
            ncols = rng.randrange(1, 5)
            rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
            basis = nullspace_mod(rows, ncols, p)
            _, pivots = rref_mod(rows, p)
            assert len(basis) == ncols - len(pivots)
            for vec in basis:
                assert all(v % p == 0 for v in mat_vec_mod(rows, vec, p)) or not rows

    def test_invert_round_trip(self):
        rng = random.Random(17)
        hits = 0
        while hits < 60:
            p = rng.choice([2, 3, 5, 7, 23])
            n = rng.randrange(1, 5)
            m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            inv = invert_mod(m, p)
            if inv is None:
                assert det_mod(m, p) == 0
                continue
            hits += 1
            assert mat_mul_mod(m, inv, p) == identity_matrix(n)
            assert mat_mul_mod(inv, m, p) == identity_matrix(n)

    def test_det_multiplicative(self):
        rng = random.Random(19)
        for _ in range(80):
            p = rng.choice([3, 5, 7])
            n = rng.randrange(1, 4)
            a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            b = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            assert det_mod(mat_mul_mod(a, b, p), p) == det_mod(a, p) * det_mod(b, p) % p
