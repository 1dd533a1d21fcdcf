"""Independent brute-force oracles used to pin expected values in tests.

Everything here is deliberately naive and separate from the package's own
algorithms: determinants by Laplace expansion, ranks by enumerating square
minors or by textbook elimination, polynomials and power series by
schoolbook arithmetic on field values, cyclic canonical forms by trying every rotation, word
families by testing every word in turn, word saturations on matrix
products, pair-algebra products classed one pair at a time, state-space dimensions as the rank of the Gram matrix of
spanning diagrams, the Frobenius axioms, the window, the center, the
regular trace form and the knowledgeable-pair axioms checked product by
product, and document arrays read one entry at a time through
``Field.parse``.
Slow, but unarguable on small inputs.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import lcm

from defekt.diagrams import _context, _spanning_records, mirror_signs
from defekt.errors import FieldMismatch, SchemaError
from defekt.exactla import Matrix, hstack
from defekt.frobenius import VerifyReport, verify, window
from defekt.openclosed import KnowledgeableReport


def naive_det(rows):
    """Laplace expansion along the first row.  Works over any commutative
    ring whose elements support +, -, *."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * naive_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def naive_rank(rows):
    """Largest size of a nonvanishing square minor (entries: Fractions or
    anything with exact == 0 semantics)."""
    if not rows or not rows[0]:
        return 0
    nr, nc = len(rows), len(rows[0])
    for size in range(min(nr, nc), 0, -1):
        for rsel in combinations(range(nr), size):
            for csel in combinations(range(nc), size):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                if naive_det(sub) != 0:
                    return size
    return 0


def elimination_rank(rows):
    """Rank by Gaussian elimination on a copy of the rows (entries: exact
    field scalars)."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def words_upto(num_letters, n):
    """Every word of length at most n, in length-then-lex order."""
    out, layer = [()], [()]
    for _ in range(n):
        layer = [w + (a,) for w in layer for a in range(num_letters)]
        out += layer
    return out


def greedy_words(words, vector):
    """The words, taken in the given order, whose vectors are independent
    of the vectors of the words kept before them."""
    kept, rows = [], []
    for w in words:
        v = list(vector(w))
        if len(rows) == len(v):
            break  # the kept vectors span the whole space
        if elimination_rank(rows + [v]) > len(rows):
            kept.append(w)
            rows.append(v)
    return kept


class _Span:
    """The rows kept so far; ``add`` keeps a row of field values when it
    raises their rank by textbook elimination."""

    def __init__(self):
        self.rows = []

    def add(self, row) -> bool:
        row = list(row)
        if elimination_rank(self.rows + [row]) > len(self.rows):
            self.rows.append(row)
            return True
        return False


def saturate_by_products(field, start, letters, prepend=False):
    """The kept (word, state) pairs of :func:`defekt.universal._saturate`,
    with each state a tuple of matrices: a candidate's state is its
    parent's times a letter matrix, one ``Matrix`` product per entry, and
    the candidates of one length are tested in sorted word order against
    the span of the field values of the states kept before them."""
    span = _Span()
    kept = []
    layer = [((), start)]
    while layer:
        layer = [(w, s) for w, s in sorted(layer, key=lambda c: c[0])
                 if span.add(x for m in s for x in m.flat())]
        kept.extend(layer)
        layer = [
            ((a,) + w if prepend else w + (a,),
             tuple(ls[a] * m if prepend else m * ls[a]
                   for m, ls in zip(s, letters)))
            for w, s in layer for a in range(len(letters[0]))
        ]
    return kept


def series_mul(a, b, n):
    """Product coefficients of orders 0..n for two power series given by
    coefficient lists (missing coefficients are zero)."""
    out = []
    for k in range(n + 1):
        s = Fraction(0)
        for i in range(k + 1):
            ai = a[i] if i < len(a) else Fraction(0)
            bj = b[k - i] if k - i < len(b) else Fraction(0)
            s += Fraction(ai) * Fraction(bj)
        out.append(s)
    return out


def series_inverse(q, n):
    """Coefficients of orders 0..n of 1/q for a list q with q[0] != 0."""
    q0 = Fraction(q[0])
    out = [1 / q0]
    for k in range(1, n + 1):
        s = Fraction(0)
        for i in range(1, k + 1):
            qi = Fraction(q[i]) if i < len(q) else Fraction(0)
            s += qi * out[k - i]
        out.append(-s / q0)
    return out


def rational_series(num, den, n):
    """Taylor coefficients of num/den of orders 0..n by naive series
    arithmetic."""
    return series_mul([Fraction(c) for c in num], series_inverse(den, n), n)


# Polynomials as lists of ascending field values, by schoolbook arithmetic.


def poly_trim(F, a):
    a = list(a)
    while a and a[-1] == F.zero:
        a.pop()
    return a


def poly_coeff(F, a, i):
    return a[i] if 0 <= i < len(a) else F.zero


def poly_add(F, a, b, sign=1):
    """a + sign * b."""
    return poly_trim(F, [poly_coeff(F, a, i) + sign * poly_coeff(F, b, i)
                         for i in range(max(len(a), len(b)))])


def poly_scale(F, a, s):
    return poly_trim(F, [s * c for c in a])


def poly_mul(F, a, b):
    out = [F.zero] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return poly_trim(F, out)


def poly_divmod(F, a, b):
    """Long division by a nonzero b: (q, r) with a = q b + r, deg r < deg b."""
    r = list(a)
    q = [F.zero] * max(0, len(a) - len(b) + 1)
    for i in reversed(range(len(q))):
        q[i] = r[i + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            r[i + j] = r[i + j] - q[i] * y
    return poly_trim(F, q), poly_trim(F, r[:len(b) - 1])


def poly_monic(F, a):
    return [c / a[-1] for c in a] if a else []


def poly_derivative(F, a):
    return poly_trim(F, [i * c for i, c in enumerate(a)][1:])


def poly_reversed(F, a, n):
    """T^n a(1/T)."""
    return poly_trim(F, [poly_coeff(F, a, n - j) for j in range(n + 1)])


def poly_shifted(F, a, k):
    return [F.zero] * k + list(a) if a else []


def poly_gcd(F, a, b):
    """Monic gcd by Euclid's algorithm on field values; gcd(0, 0) = 0."""
    while b:
        a, b = b, poly_divmod(F, a, b)[1]
    return poly_monic(F, a)


def poly_lcm(F, a, b):
    """Monic lcm, for a and b not both zero."""
    return poly_monic(F, poly_divmod(F, poly_mul(F, a, b), poly_gcd(F, a, b))[0])


def series_by_long_division(F, num, den, n):
    """Coefficients of orders 0..n of num/den, den[0] != 0, each divided
    out by den[0] in turn."""
    out = []
    for k in range(n + 1):
        s = poly_coeff(F, num, k)
        for i in range(1, k + 1):
            s = s - poly_coeff(F, den, i) * out[k - i]
        out.append(s / den[0])
    return out


def min_rotation(word):
    """Lexicographically smallest rotation, by trying all of them."""
    if not word:
        return tuple(word)
    rots = [tuple(word[i:]) + tuple(word[:i]) for i in range(len(word))]
    return min(rots)


def hankel_rows(seq, rows, cols):
    """The rows-by-cols Hankel slab H[i][j] = seq[i+j]."""
    return [[seq[i + j] for j in range(cols)] for i in range(rows)]


def companion_trace_powers(g_coeffs, n):
    """tr(C^m) for m = 0..n where C is the companion matrix of the monic
    polynomial with ascending coefficients g_coeffs, via Newton's identities
    run naively (independent of any matrix code)."""
    d = len(g_coeffs) - 1
    assert g_coeffs[-1] == 1
    # char poly: T^d + c_{d-1} T^{d-1} + ... + c_0
    # Newton: p_k = -k*c_{d-k} - sum_{i=1}^{k-1} c_{d-i} p_{k-i}  (k <= d)
    #         p_k = -sum_{i=1}^{d} c_{d-i} p_{k-i}                (k > d)
    c = [Fraction(x) for x in g_coeffs]
    p = [Fraction(d)]
    for k in range(1, n + 1):
        if k <= d:
            s = -k * c[d - k]
            for i in range(1, k):
                s -= c[d - i] * p[k - i]
        else:
            s = Fraction(0)
            for i in range(1, d + 1):
                s -= c[d - i] * p[k - i]
        p.append(s)
    return p


def verify_by_products(b):
    """The Frobenius axioms of b checked through ``b.mul``, with the same
    witnesses as :func:`defekt.frobenius.verify`: the lexicographically
    first (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), the first i with
    u e_i != e_i or e_i u != e_i, the first i < j with G[i, j] != G[j, i],
    and the first radical vector of the Gram matrix G."""
    n = b.dim
    basis = b.basis_columns
    prod = [[b.mul(x, y) for y in basis] for x in basis]
    assoc_w = next(((i, j, k) for i, j, k in product(range(n), repeat=3)
                    if b.mul(prod[i][j], basis[k]) != b.mul(basis[i], prod[j][k])),
                   None)
    u = b.unit_el()
    unital_w = next((i for i, e in enumerate(basis)
                     if b.mul(u, e) != e or b.mul(e, u) != e), None)
    G = b.gram()
    sym_w = next(((i, j) for i, j in combinations(range(n), 2)
                  if G[i, j] != G[j, i]), None)
    radical = G.kernel_basis()
    return VerifyReport(
        associative=assoc_w is None,
        associative_witness=assoc_w,
        unital=unital_w is None,
        unital_witness=unital_w,
        symmetric=sym_w is None,
        symmetric_witness=sym_w,
        nondegenerate=not radical,
        radical_witness=radical[0] if radical else None,
    )


def commutators_by_products(b):
    """The kept commutators of :func:`defekt.frobenius.commutator_space`:
    e_i e_j - e_j e_i through ``b.mul`` for i < j in order, each kept when
    independent of those kept before it."""
    span = _Span()
    kept = []
    for i, j in combinations(range(b.dim), 2):
        ei, ej = b.basis_el(i), b.basis_el(j)
        c = b.mul(ei, ej) - b.mul(ej, ei)
        if span.add(c.flat()):
            kept.append(c)
    return kept


def hole_by_products(b):
    """The hole element sum_i x_i y_i over the dual bases, one ``b.mul``
    and one addition of columns per term."""
    out = zero_el(b)
    for x, y in zip(*b.duals):
        out = out + b.mul(x, y)
    return out


def window_by_products(b, elem):
    """The window sum_i y_i elem x_i over the dual bases, two ``b.mul`` and
    one addition of columns per term."""
    out = zero_el(b)
    for x, y in zip(*b.duals):
        out = out + b.mul(b.mul(y, elem), x)
    return out


def center_by_products(b):
    """The kernel basis of x |-> (x e_j - e_j x)_j: column i holds the
    commutators e_i e_j - e_j e_i through ``b.mul``, for j in order."""
    basis = b.basis_columns
    cols = [[c for ej in basis for c in (b.mul(ei, ej) - b.mul(ej, ei)).flat()]
            for ei in basis]
    return Matrix(b.field, [list(r) for r in zip(*cols)], cols=b.dim).kernel_basis()


def regular_trace_form_by_products(b):
    """T[i][j] = trace(L_i L_j), with L_i the matrix of y |-> e_i y whose
    column j is ``b.mul(e_i, e_j)``, multiplied as matrices."""
    basis = b.basis_columns
    lefts = [hstack([b.mul(x, y) for y in basis]) for x in basis]
    return Matrix(b.field, [[(a * c).trace() for c in lefts] for a in lefts], cols=b.dim)


def comult_by_products(b, elem):
    """Coefficient matrix M of Delta(elem) = sum M[r,s] e_r (x) e_s, with
    Delta(v) = sum_i (v * y_i) (x) x_i over dual bases tr(x_i y_j) = d_ij."""
    cols = [b.mul(elem, y) for y in b.duals[1]]
    n = b.dim
    return Matrix(b.field, [[cols[s][r, 0] for s in range(n)] for r in range(n)], cols=n)


def knowledgeable_by_products(p):
    """The report of :func:`defekt.openclosed.check_knowledgeable`, each
    axiom checked through ``mul`` on basis elements and their images, one
    pair of indices at a time."""
    b, c = p.open_algebra, p.closed_algebra
    jz, jc = p.zipper, p.cozipper
    vb, vc = verify(b), verify(c)
    alg_hom = all(
        jc * c.mul(c.basis_el(i), c.basis_el(j))
        == b.mul(jc * c.basis_el(i), jc * c.basis_el(j))
        for i in range(c.dim) for j in range(c.dim))
    unital = jc * c.unit_el() == b.unit_el()
    central = all(
        b.mul(jc * c.basis_el(i), b.basis_el(j)) == b.mul(b.basis_el(j), jc * c.basis_el(i))
        for i in range(c.dim) for j in range(b.dim))
    trace_resp = all(c.trace_of(jz * b.basis_el(i)) == b.trace[i] for i in range(b.dim))
    duality = all(
        c.trace_of(c.mul(jz * b.basis_el(i), c.basis_el(j)))
        == b.trace_of(b.mul(b.basis_el(i), jc * c.basis_el(j)))
        for i in range(b.dim) for j in range(c.dim))
    coalg = cardy = False
    if vb.nondegenerate and vc.nondegenerate:
        jzt = jz.transpose()
        coalg = all(
            comult_by_products(c, jz * b.basis_el(i))
            == jz * comult_by_products(b, b.basis_el(i)) * jzt
            for i in range(b.dim))
        cardy = all(jc * (jz * b.basis_el(i)) == window(b, b.basis_el(i))
                    for i in range(b.dim))
    return KnowledgeableReport(
        open_report=vb, closed_report=vc, closed_commutative=c.is_commutative(),
        cozipper_algebra_hom=alg_hom, cozipper_unital=unital,
        cozipper_image_central=central, zipper_coalgebra_hom=coalg,
        zipper_trace_respecting=trace_resp, duality=duality, cardy=cardy)


def triple_by_sum(pa, x):
    """The spanning triple of a pair-algebra class: the basis triples
    scaled by its coordinates and added one by one."""
    F = pa.field
    out = [Matrix.zeros(F, pa.k, pa.k), Matrix.zeros(F, pa.m, pa.m),
           Matrix.zeros(F, pa.k, pa.k)]
    for c, t in zip(x.flat(), pa.basis_triples):
        if c:
            out = [a + b.scale(c) for a, b in zip(out, t)]
    return tuple(out)


def mixed_product(s, t):
    """The product of two (phi, rho, a) triples by the paper's mixed rule on
    y = a - phi, the half-interval part: (phi1 phi2, rho1 rho2, phi1 y2 +
    y1 phi2 + y1 y2), returned with a = phi + y."""
    (phi1, rho1, a1), (phi2, rho2, a2) = s, t
    y1, y2 = a1 - phi1, a2 - phi2
    phi = phi1 * phi2
    return (phi, rho1 * rho2, phi + (phi1 * y2 + y1 * phi2 + y1 * y2))


def products_by_pairs(pa, xs):
    """prods[i][j] is the class of xs[i] * xs[j], one ``coords`` call for
    each pair."""
    ts = [triple_by_sum(pa, x) for x in xs]
    return [[pa.coords(mixed_product(s, t)) for t in ts] for s in ts]


def kernel_algebra_by_pairs(pa):
    """(mult, unit, trace) of the kernel ideal K: the product of each pair
    of basis elements in K coordinates, the K coordinates of one_K, and the
    closure trace trace(D*rho) + trace(a - phi) of each basis triple."""
    mult = tuple(tuple(tuple(pa.to_K_coords(p).flat()) for p in row)
                 for row in products_by_pairs(pa, pa.K_basis))
    unit = tuple(pa.to_K_coords(pa.one_K).flat())
    trace = []
    for b in pa.K_basis:
        phi, rho, a = triple_by_sum(pa, b)
        trace.append((pa.circ.weight * rho).trace() + (a - phi).trace())
    return mult, unit, tuple(trace)


def idempotent_flags_by_pairs(pa):
    """(each idempotent, orthogonal, sum is the unit) for one_K and the
    diagonal matrix units."""
    els = [pa.one_K] + [pa.I_coords[i][i] for i in range(pa.k)]
    prods = products_by_pairs(pa, els)
    n = len(els)
    total = els[0]
    for e in els[1:]:
        total = total + e
    return (all(prods[i][i] == els[i] for i in range(n)),
            all(prods[i][j].is_zero() for i in range(n) for j in range(n) if i != j),
            total == pa.unit)


def pair_value(t, x, y):
    """Closed evaluation of a spanning record x of A(eps) against the mirror
    of a spanning record y of A(mirror_signs(eps)), as ``compose`` and
    ``evaluate_closed`` would give it.

    Point p joins x[p] with the entry of y read from the mirrored side, at
    n - 1 - p with its other point q moved to n - 1 - q.  One walk runs
    against the strand direction, switching sides at each point and
    appending the words in evaluation order: from a covector head it ends
    at a state vector (an interval), from an arc head of x it comes back
    (a circle)."""
    ctx = _context(t)
    n = len(x)
    sides = (x, tuple((kind, w, None if q is None else n - 1 - q)
                      for kind, w, q in reversed(y)))
    heads_seen = set()

    def walk(side, p, word):
        start = (side, p)
        while True:
            kind, w, tail = sides[side][p]
            word = word + w
            if kind == "ket":
                return ctx.interval_value(t.statespace, word)
            if side == 0:
                heads_seen.add(p)
            side, p = 1 - side, tail
            if (side, p) == start:
                return ctx.circle_value(word)

    val = ctx.field.one
    for p in range(n):
        if sides[0][p][0] == "bra":
            val = val * walk(1, p, sides[0][p][1])
        if sides[1][p][0] == "bra":
            val = val * walk(0, p, sides[1][p][1])
    for kind, _, head in x:
        if kind == "tail" and head not in heads_seen:
            val = val * walk(0, head, ())
    return val


def gram_rows(t, eps):
    """The Gram matrix of A(eps): the spanning records of A(mirror eps), one
    per row, paired with those of A(eps), one per column."""
    xs = _spanning_records(t, eps)
    return [[pair_value(t, x, y) for x in xs]
            for y in _spanning_records(t, mirror_signs(eps))]


def gram_dim(t, eps):
    """dim A(eps) as the rank of its Gram matrix."""
    return elimination_rank(gram_rows(t, eps))


def beta_by_solves(b, center, reps):
    """The matrix and the landing flag of the beta map on the given center
    basis and coset representatives: the window of each representative,
    by products, solved against the center one column at a time; a column
    that does not land is zero and clears the flag."""
    F = b.field
    cent = hstack(list(center)) if center else Matrix.zeros(F, b.dim, 0)
    lands, cols = True, []
    for i in reps:
        sol = cent.solve(window_by_products(b, b.basis_el(i)))
        if sol is None:
            lands, sol = False, Matrix.zeros(F, len(center), 1)
        cols.append(sol)
    mat = hstack(cols) if cols and center else Matrix.zeros(F, len(center), len(reps))
    return mat, lands


def read_array(field, doc, shape, path):
    """What ``Field._read`` gives for a JSON array of the given shape: each
    entry through ``Field.parse`` in row-major order, then the values as
    ints over the lcm of their denominators (residues over 1 over F_p).
    The first bad array or entry in document order raises SchemaError at
    its own path."""
    values = []

    def walk(doc, shape, path):
        n = shape[0]
        if not isinstance(doc, list) or len(doc) != n:
            what = {1: f"an array of {n} scalars", 2: f"{n} rows", 3: f"{n} planes"}
            raise SchemaError(path, f"expected {what[len(shape)]}")
        for i, x in enumerate(doc):
            if len(shape) > 1:
                walk(x, shape[1:], f"{path}[{i}]")
                continue
            try:
                values.append(field.parse(x))
            except FieldMismatch as e:
                raise SchemaError(f"{path}[{i}]", e.message) from None

    walk(doc, tuple(shape), path)
    if field.char:
        return tuple(v.v for v in values), 1
    d = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (d // v.denominator) for v in values), d


# -- readers of the package's structures that only tests use -------------


def pairing_matrix(ss):
    """P[i][j] = value(word_basis[i] + word_basis[j]) of a state space."""
    return Matrix(ss.field, [[ss.value(wi + wj) for wj in ss.word_basis]
                             for wi in ss.word_basis], cols=ss.dim)


def arc_class(pa, word):
    """Class of the arc decorated by the given word, in the pair algebra's
    quotient coordinates."""
    phi = pa.statespace.act(word)
    return pa.coords((phi, pa.circ.act(word), phi))


def closure_value(pa, x, word=()):
    """Circle closure of a class against a word: the scalar obtained by
    closing the pair off with an arc carrying the word."""
    return (pa._closer_row(word) * (pa.B * x))[0, 0]


def from_K_coords(pa, z):
    """The class in quotient coordinates of a K element given in K's
    coordinates."""
    return pa._K_mat * z


def zero_el(b):
    """The zero element of a Frobenius algebra, as a column."""
    return Matrix.zeros(b.field, b.dim, 1)


def is_zero_algebra(b):
    return b.dim == 0
