"""Reference solvers for p * gen = target in Z4[x]/(x^n - 1).

They are the oracles for ``z2z4.linimage.solve_cyclic_z4_lexmin``, which
reads the Howell bases of the code and of its annihilator off (f, h, g):
``howell_lexmin`` echelons the rows (x^i gen | e_i) over 2n columns for any
gen; ``digit_fixing_lexmin`` fixes the coefficients of p one at a time,
smallest digit first, with a Smith-form solvability test per digit (about 4n
eliminations), and ``all_cyclic_solutions`` tries all 4^n vectors.

``divisibility_gray_linear`` is a cross-check for
``z2z4.linimage.z4_gray_linear_oracle``: it decides the Gray-image
closure of <fh + 2f> from the order-two subcode alone, without the code.
"""

from __future__ import annotations

from itertools import product as iproduct

from z2z4.errors import InternalError
from z2z4.polyring import BinPoly, QuatPoly, cyclic_reduce, reduce_mod2

# A row of the 2n-column echelon is a pair of ints (lo, hi): entry k is bit
# k of lo plus twice bit k of hi.  Its add is kept here, apart from
# ``QuatPoly``, so the oracle does not share the arithmetic it checks.
Row = tuple[int, int]


def _add(a: Row, b: Row) -> Row:
    return a[0] ^ b[0], a[1] ^ b[1] ^ (a[0] & b[0])


def _to_row(p: QuatPoly, n: int) -> Row:
    """p mod x^n - 1 as a row of n entries, built from its coefficients."""
    coeffs = cyclic_reduce(p, n).coeffs
    return (
        sum((c & 1) << k for k, c in enumerate(coeffs)),
        sum((c >> 1) << k for k, c in enumerate(coeffs)),
    )


def _clear_by_unit(row: Row, piv: Row, bit: int) -> Row:
    """row - e * piv, where e is the entry of row at ``bit`` and piv's is 1."""
    lo, hi = row
    if lo & bit:
        if hi & bit:  # e = 3
            return _add(row, piv)
        return _add(row, (piv[0], piv[1] ^ piv[0]))  # e = 1: add -piv
    if hi & bit:  # e = 2: add 2 * piv = (0, piv.lo)
        return lo, hi ^ piv[0]
    return row


def howell_lexmin(gen: QuatPoly, target: QuatPoly, n: int) -> QuatPoly | None:
    """The p with p * gen = target whose coefficient vector is smallest, or None.

    Vectors compare lexicographically from p_0.  The rows (x^i gen | e_i)
    span the pairs (p gen | p).  One column-by-column pass brings them to
    Howell form over Z4: a unit pivot is normalised to 1 and clears its
    column; a pivot of 2 clears the other 2s and appends twice its row,
    which vanishes on its own column.  Afterwards the pivots at or after
    any column span every row-space vector that vanishes before it, so
    reducing (-target | 0) greedily column by column reaches the smallest
    vector of its coset, and that is (0 | p) exactly when p exists.
    """
    tgt = cyclic_reduce(target, n)
    g_lo, g_hi = _to_row(gen, n)
    mask = (1 << n) - 1
    rows = [
        (
            ((g_lo << i) | (g_lo >> (n - i))) & mask | 1 << (n + i),
            ((g_hi << i) | (g_hi >> (n - i))) & mask,
        )
        for i in range(n)
    ]
    pivots: list[tuple[int, Row, bool]] = []  # (column bit, row, pivot is 2)
    for j in range(2 * n):
        bit = 1 << j
        k = next((k for k, r in enumerate(rows) if r[0] & bit), None)
        if k is not None:
            lo, hi = rows.pop(k)
            piv = (lo, hi ^ lo) if hi & bit else (lo, hi)  # 3 -> 1 by negation
            rows = [_clear_by_unit(r, piv, bit) for r in rows]
            pivots.append((bit, piv, False))
            continue
        k = next((k for k, r in enumerate(rows) if r[1] & bit), None)
        if k is None:
            continue
        piv = rows.pop(k)
        rows = [_add(r, piv) if r[1] & bit else r for r in rows]
        if piv[0]:
            rows.append((0, piv[0]))
        pivots.append((bit, piv, True))
    t_lo, t_hi = _to_row(tgt, n)
    v = (t_lo, t_hi ^ t_lo)
    for bit, piv, two in pivots:
        if not two:
            v = _clear_by_unit(v, piv, bit)
        elif v[1] & bit:  # 2 -> 0, 3 -> 1
            v = _add(v, piv)
    if (v[0] | v[1]) & mask:
        return None
    p = QuatPoly(((v[0] >> k) & 1) | ((v[1] >> k) & 1) << 1 for k in range(n, 2 * n))
    if cyclic_reduce(p * gen, n) != tgt:
        raise InternalError("the echelon solution does not solve p * gen = target")
    return p


def smith_solve_z4(m: list[list[int]], t: list[int]) -> list[int] | None:
    """One solution of M y = t over Z4 via diagonalization, or None.

    Row and column operations reduce M to diag(1..1, 2..2, 0..0); column
    operations are accumulated so a solution of the diagonal system can be
    mapped back.  Z4 is a chain ring, so this always succeeds.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [r[:] for r in m]
    rhs = t[:]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    diag: list[int] = []
    k = 0
    while k < min(rows, cols):
        pr = pc = -1
        for i in range(k, rows):
            for j in range(k, cols):
                if a[i][j] % 2 == 1:
                    pr, pc = i, j
                    break
            if pr >= 0:
                break
        if pr < 0:
            for i in range(k, rows):
                for j in range(k, cols):
                    if a[i][j]:
                        pr, pc = i, j
                        break
                if pr >= 0:
                    break
        if pr < 0:
            break
        a[k], a[pr] = a[pr], a[k]
        rhs[k], rhs[pr] = rhs[pr], rhs[k]
        for row in a:
            row[k], row[pc] = row[pc], row[k]
        for vi in v:
            vi[k], vi[pc] = vi[pc], vi[k]
        piv = a[k][k]
        if piv in (3,):
            a[k] = [(3 * x) % 4 for x in a[k]]
            rhs[k] = (3 * rhs[k]) % 4
            piv = a[k][k]
        if piv == 1:
            for i in range(rows):
                if i != k and a[i][k]:
                    c = a[i][k]
                    a[i] = [(x - c * y) % 4 for x, y in zip(a[i], a[k])]
                    rhs[i] = (rhs[i] - c * rhs[k]) % 4
            for j in range(cols):
                if j != k and a[k][j]:
                    c = a[k][j]
                    for row in a:
                        row[j] = (row[j] - c * row[k]) % 4
                    for vi in v:
                        vi[j] = (vi[j] - c * vi[k]) % 4
        else:  # pivot 2; the whole remaining block is even
            for i in range(rows):
                if i != k and a[i][k]:
                    c = a[i][k] // 2
                    a[i] = [(x - c * y) % 4 for x, y in zip(a[i], a[k])]
                    rhs[i] = (rhs[i] - c * rhs[k]) % 4
            for j in range(cols):
                if j != k and a[k][j]:
                    c = a[k][j] // 2
                    for row in a:
                        row[j] = (row[j] - c * row[k]) % 4
                    for vi in v:
                        vi[j] = (vi[j] - c * vi[k]) % 4
        diag.append(a[k][k])
        k += 1
    y = [0] * cols
    for i, d in enumerate(diag):
        if d == 1:
            y[i] = rhs[i]
        else:  # d == 2
            if rhs[i] % 2:
                return None
            y[i] = (rhs[i] // 2) % 4
    for i in range(len(diag), rows):
        if rhs[i] % 4:
            return None
    sol = [sum(v[i][j] * y[j] for j in range(cols)) % 4 for i in range(cols)]
    for i in range(rows):
        if sum(m[i][j] * sol[j] for j in range(cols)) % 4 != t[i] % 4:
            return None
    return sol


def cyclic_mult_matrix(gen: QuatPoly, n: int) -> list[list[int]]:
    cols = []
    cur = cyclic_reduce(gen, n)
    for _ in range(n):
        cols.append(list(cur.coeffs) + [0] * (n - len(cur.coeffs)))
        cur = cyclic_reduce(QuatPoly.x() * cur, n)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def digit_fixing_lexmin(gen: QuatPoly, target: QuatPoly, n: int) -> QuatPoly | None:
    """The solution with the lexicographically smallest coefficient vector.

    Coefficients are fixed one at a time, smallest digit first, keeping the
    remaining system solvable; each step costs one elimination pass.
    """
    m = cyclic_mult_matrix(gen, n)
    t = list(cyclic_reduce(target, n).coeffs)
    t += [0] * (n - len(t))
    if smith_solve_z4(m, t) is None:
        return None
    fixed: list[int] = []
    for i in range(n):
        rest = [[row[j] for j in range(i + 1, n)] for row in m]
        for d in range(4):
            t2 = [
                (t[r] - sum(m[r][j] * fixed[j] for j in range(i)) - m[r][i] * d) % 4
                for r in range(n)
            ]
            if not rest[0] and any(t2[r] % 4 for r in range(n)):
                continue
            if not rest[0] or smith_solve_z4(rest, t2) is not None:
                fixed.append(d)
                break
        else:
            raise InternalError("digit fixing lost solvability")
    return QuatPoly(fixed)


def all_cyclic_solutions(gen: QuatPoly, target: QuatPoly, n: int) -> list[QuatPoly]:
    """Every p with p * gen = target (exhaustive; intended for small n)."""
    out = []
    tgt = cyclic_reduce(target, n)
    for coeffs in iproduct(range(4), repeat=n):
        p = QuatPoly(coeffs)
        if cyclic_reduce(p * gen, n) == tgt:
            out.append(p)
    return out


def divisibility_gray_linear(f: QuatPoly, h: QuatPoly, g: QuatPoly, n: int) -> bool:
    """The closure verdict for the quaternary cyclic code <fh + 2f> of
    length n, with f h g = x^n - 1, from its order-two subcode 2<f~>.

    The mod-2 patterns of the code are spanned by the deg g shifts of
    (fh)~, and the doubled star product is bi-additive in the patterns, so
    the pairs of those shifts suffice: 2(s & t) lies in the code iff f~
    divides the polynomial with coefficient vector s & t.
    """
    ft = reduce_mod2(f)
    fh = reduce_mod2(f * h).bits
    basis = [fh << i for i in range(int(g.degree) if not g.is_zero else 0)]
    return all(
        ft.divides(BinPoly.from_bits(s & t)) for i, s in enumerate(basis) for t in basis[i:]
    )
