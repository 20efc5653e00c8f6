"""Exact integer and prime-field linear algebra.

Everything here works on plain Python ints (arbitrary precision), lists of
lists for matrices.  No floating point anywhere: these routines back the
homology computations, where a single rounding error would silently corrupt
a certificate.  At runtime only the covers layer calls it (rref_mod and
nullspace_mod, to find the least invariant hyperplane, the one covector a
cover certificate may state), so a command without a cover or a discharge
ledger never compiles it.  smith_normal_form, cokernel_invariants,
mat_mul_mod, invert_mod and identity_matrix have no runtime caller: they
are test oracles, and the benchmark's tracer names the first four.
"""


def smith_normal_form(rows, ncols):
    """Diagonalize an integer matrix by unimodular row and column operations.

    Returns the nonzero diagonal entries d_1 | d_2 | ... (positive, a
    divisibility chain); the transforms themselves are not kept.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = ncols
    for r in a:
        if len(r) != n:
            raise ValueError("ragged matrix")

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row[dst] += c * row[src]
        ra, rb = a[src], a[dst]
        for j in range(n):
            rb[j] += c * ra[j]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]

    t = 0
    limit = min(m, n)
    while t < limit:
        # pick the nonzero pivot of least magnitude in the remaining block
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                e = a[i][j]
                if e != 0 and (piv is None or abs(e) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t right of the pivot
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide every entry of the remaining block
            bad = None
            p = a[t][t]
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % p != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(bad, t, 1)
        t += 1

    diag = []
    for i in range(limit):
        if a[i][i] == 0:
            break
        diag.append(abs(a[i][i]))
    return diag


def cokernel_invariants(rows, ncols):
    """Invariants of Z^ncols / rowspace(rows): (free_rank, torsion divisors > 1)."""
    diag = smith_normal_form(rows, ncols)
    torsion = tuple(d for d in diag if d > 1)
    return ncols - len(diag), torsion


def mat_mul_mod(x, y, p):
    rows = len(x)
    inner = len(y)
    cols = len(y[0]) if inner else 0
    out = []
    for i in range(rows):
        xi = x[i]
        row = []
        for j in range(cols):
            s = 0
            for t in range(inner):
                s += xi[t] * y[t][j]
            row.append(s % p)
        out.append(row)
    return out


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def rref_mod(rows, p):
    """Row-reduced echelon form over F_p. Returns (reduced rows, pivot column list)."""
    a = [[e % p for e in row] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if a[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [(e * inv) % p for e in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(e - f * g) % p for e, g in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return [tuple(row) for row in a[:r]], pivots


def nullspace_mod(rows, ncols, p):
    """Basis of {v : rows * v = 0} over F_p, one vector (length ncols) per free column."""
    red, pivots = rref_mod(rows, p)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-red[r][free]) % p
        basis.append(tuple(vec))
    return basis


def invert_mod(matrix, p):
    """Inverse of a square matrix over F_p, or None if singular."""
    n = len(matrix)
    aug = [list(matrix[i]) + identity_matrix(n)[i] for i in range(n)]
    red, pivots = rref_mod(aug, p)
    if pivots != list(range(n)):
        return None
    return [list(row[n:]) for row in red]

