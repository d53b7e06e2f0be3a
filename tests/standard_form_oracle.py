"""The list-based standard form, the reference for the packed
``additive.standard_form``.

Rows are (binary list, quaternary list) pairs.  Unit pivots are taken over
the quaternary columns right to left, then the order-two rows are reduced
over GF(2): binary columns left to right, then the halved quaternary
entries right to left.
"""

from z2z4.additive import CodeType, GeneratorMatrix, MixedVector, StandardForm


def _row_sub(r, p, c):
    # r -= c * p on (bin list, quat list) pairs
    if c & 1:
        rb, pb = r[0], p[0]
        for j in range(len(rb)):
            rb[j] ^= pb[j]
    rq, pq = r[1], p[1]
    for j in range(len(rq)):
        rq[j] = (rq[j] - c * pq[j]) % 4


def list_standard_form(matrix: GeneratorMatrix) -> StandardForm:
    """Row-reduce into the block shape with identity blocks and return the
    column permutation that realizes it.

    Unit pivots in the quaternary block are searched from the right so that
    a matrix already in standard shape comes back unchanged with identity
    permutations.
    """
    alpha, beta = matrix.alpha, matrix.beta
    rows = [[list(r.bin), list(r.quat)] for r in matrix.rows]
    used = [False] * len(rows)

    # order-four pivot pass over quaternary columns, right to left
    unit_pivots: list[tuple[int, int]] = []
    for col in range(beta - 1, -1, -1):
        pr = None
        for i, r in enumerate(rows):
            if not used[i] and r[1][col] % 2 == 1:
                pr = i
                break
        if pr is None:
            continue
        used[pr] = True
        if rows[pr][1][col] == 3:
            rows[pr][1] = [(3 * q) % 4 for q in rows[pr][1]]
        for i, r in enumerate(rows):
            if i != pr and r[1][col]:
                _row_sub(r, rows[pr], r[1][col])
        unit_pivots.append((pr, col))
    unit_pivots.reverse()  # ascending pivot columns

    # remaining rows are order two: quaternary entries all even
    rest = [i for i in range(len(rows)) if not used[i]]
    bvecs = [[rows[i][0][:], [q // 2 for q in rows[i][1]]] for i in rest]
    bin_pivots: list[tuple[int, int]] = []
    q2_pivots: list[tuple[int, int]] = []
    assigned = [False] * len(bvecs)

    def _gf2_eliminate(col_block: int, col: int, pivots):
        pr = None
        for i, v in enumerate(bvecs):
            if not assigned[i] and v[col_block][col]:
                pr = i
                break
        if pr is None:
            return
        assigned[pr] = True
        for i, v in enumerate(bvecs):
            if i != pr and v[col_block][col]:
                v[0] = [a ^ b for a, b in zip(v[0], bvecs[pr][0])]
                v[1] = [a ^ b for a, b in zip(v[1], bvecs[pr][1])]
        pivots.append((pr, col))

    for col in range(alpha):
        _gf2_eliminate(0, col, bin_pivots)
    for col in range(beta - 1, -1, -1):
        _gf2_eliminate(1, col, q2_pivots)
    q2_pivots.reverse()

    kappa = len(bin_pivots)
    gamma = kappa + len(q2_pivots)
    delta = len(unit_pivots)

    # column permutations realizing the block layout
    bin_piv_cols = [c for _, c in bin_pivots]
    bin_perm = tuple(bin_piv_cols + [c for c in range(alpha) if c not in bin_piv_cols])
    q2_cols = [c for _, c in q2_pivots]
    unit_cols = [c for _, c in unit_pivots]
    free_cols = [c for c in range(beta) if c not in q2_cols and c not in unit_cols]
    quat_perm = tuple(free_cols + q2_cols + unit_cols)

    def _permuted(bin_list, quat_list):
        return MixedVector(
            tuple(bin_list[c] for c in bin_perm), tuple(quat_list[c] for c in quat_perm)
        )

    out_rows = [[list(bvecs[i][0]), [2 * q for q in bvecs[i][1]]] for i, _ in bin_pivots]
    out_rows += [[list(bvecs[i][0]), [2 * q for q in bvecs[i][1]]] for i, _ in q2_pivots]
    delta_rows = [[rows[i][0][:], rows[i][1][:]] for i, _ in unit_pivots]

    # clear binary pivot columns from the order-four rows, then reduce their
    # entries at the 2-pivot columns into {0, 1}
    for dr in delta_rows:
        for k, (_, col) in enumerate(bin_pivots):
            if dr[0][col]:
                _row_sub(dr, out_rows[k], 1)
        for k, (_, col) in enumerate(q2_pivots):
            e = dr[1][col]
            if e >= 2:
                _row_sub(dr, out_rows[kappa + k], e // 2)
    out_rows += delta_rows

    std = GeneratorMatrix(
        alpha, beta, tuple(_permuted(r[0], r[1]) for r in out_rows)
    )
    ctype = CodeType(alpha, beta, gamma, delta, kappa)
    return StandardForm(std, ctype, bin_perm, quat_perm)
