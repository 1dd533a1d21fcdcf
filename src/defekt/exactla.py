"""Exact linear algebra over the rationals and over prime fields.

Scalars are ``fractions.Fraction`` (rationals, kept in lowest terms with a
positive denominator by the stdlib) or :class:`FpValue` (residues mod p,
stored in ``[0, p)``).  Matrices are immutable dense row-major arrays and
polynomials are immutable ascending coefficient tuples with no trailing
zeros.  No floating point is used anywhere, and every algorithm is
deterministic: row reduction always picks the leftmost nonzero column and
the topmost available row, and the characteristic polynomial is computed
division-free (Berkowitz), so results are identical across runs and do not
depend on hash order.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    BothZero,
    FieldMismatch,
    NotSquare,
    SchemaError,
    SingularMatrix,
)

__all__ = [
    "QQ",
    "Echelon",
    "Field",
    "FpValue",
    "Matrix",
    "Polynomial",
    "PrimeField",
    "RationalField",
    "char_poly",
    "field_from_json",
    "hstack",
    "kernel_basis",
    "poly_gcd_lcm",
    "rref",
    "vstack",
]


class FpValue:
    """A residue mod a prime p, with field arithmetic via operators.

    Mixed arithmetic with plain ints is allowed (ints are reduced mod p);
    mixing residues of different moduli raises FieldMismatch.
    """

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _lift(self, other) -> "FpValue":
        if isinstance(other, FpValue):
            if other.p != self.p:
                raise FieldMismatch(
                    f"cannot mix residues mod {self.p} and mod {other.p}"
                )
            return other
        if isinstance(other, int):
            return FpValue(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return FpValue(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return FpValue(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return FpValue(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return FpValue(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError(f"division by zero mod {self.p}")
        return FpValue(self.v * pow(o.v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return FpValue(-self.v, self.p)

    def __pow__(self, n: int):
        if n < 0:
            if self.v == 0:
                raise ZeroDivisionError(f"inverse of zero mod {self.p}")
            return FpValue(pow(pow(self.v, -1, self.p), -n, self.p), self.p)
        return FpValue(pow(self.v, n, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, FpValue):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v}"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Field:
    """Abstract ground field: the rationals or a prime field F_p."""

    char: int
    name: str
    zero: object
    one: object

    def of(self, v):
        raise NotImplementedError

    def parse(self, v):
        """Parse a JSON scalar (int or a string such as '-3/2')."""
        raise NotImplementedError

    def format(self, x) -> str:
        raise NotImplementedError

    def tag(self) -> dict:
        raise NotImplementedError


class RationalField(Field):
    char = 0
    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, str):
            return Fraction(v)
        if isinstance(v, FpValue):
            raise FieldMismatch("prime-field value used where a rational was expected")
        raise FieldMismatch(f"cannot interpret {v!r} as a rational scalar")

    def parse(self, v):
        if isinstance(v, bool) or isinstance(v, float):
            raise FieldMismatch(f"scalar {v!r} is not exact; use ints or 'a/b' strings")
        return self.of(v)

    def format(self, x) -> str:
        return str(x)

    def tag(self) -> dict:
        return {"type": "rational"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational-field")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    name = "prime"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldMismatch(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = FpValue(0, p)
        self.one = FpValue(1, p)

    def of(self, v):
        if isinstance(v, FpValue):
            if v.p != self.p:
                raise FieldMismatch(f"residue mod {v.p} used in F_{self.p}")
            return v
        if isinstance(v, int):
            return FpValue(v, self.p)
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise FieldMismatch(
                    f"denominator {v.denominator} is divisible by {self.p}"
                )
            return FpValue(v.numerator * pow(v.denominator, -1, self.p), self.p)
        if isinstance(v, str):
            return self.of(Fraction(v))
        raise FieldMismatch(f"cannot interpret {v!r} as a scalar in F_{self.p}")

    def parse(self, v):
        if isinstance(v, bool) or isinstance(v, float):
            raise FieldMismatch(f"scalar {v!r} is not exact; use ints or 'a/b' strings")
        return self.of(v)

    def format(self, x) -> str:
        return str(x.v)

    def tag(self) -> dict:
        return {"type": "prime", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime-field", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def field_from_json(doc, path: str = "field") -> Field:
    """Build a field from its JSON tag {"type": "rational"} or
    {"type": "prime", "p": 7}."""
    if doc is None:
        return QQ
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object with a 'type' key")
    t = doc.get("type")
    if t == "rational":
        return QQ
    if t == "prime":
        p = doc.get("p")
        if not isinstance(p, int) or isinstance(p, bool):
            raise SchemaError(f"{path}.p", "expected an integer prime")
        if not _is_prime(p):
            raise SchemaError(f"{path}.p", f"{p} is not prime")
        return PrimeField(p)
    raise SchemaError(f"{path}.type", f"unknown field type {t!r}")


def _dot(xs, ys, field: Field):
    # A zero factor adds nothing, so skipping it is exact; the operands
    # here (block generators, unit matrices, echelon rows) are mostly zero.
    s = field.zero
    for x, y in zip(xs, ys):
        if x and y:
            s = s + x * y
    return s


class Echelon:
    """Incremental row echelon form for independence testing.

    ``add`` reduces a vector by the rows kept so far, in the order they
    were kept, and keeps the normalized remainder when it is nonzero.  Fed
    the columns of a matrix in order, it accepts exactly the pivot columns
    of the matrix's rref.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field: Field):
        self.field = field
        self.rows: list[tuple[int, list]] = []  # (pivot index, normalized row)

    def add(self, vec) -> bool:
        """Keep the vector if it is independent of the span; True if kept."""
        v = list(vec)
        for p, row in self.rows:
            c = v[p]
            if c:
                v = [x - c * y if y else x for x, y in zip(v, row)]
        for p, x in enumerate(v):
            if x:
                inv = self.field.one / x
                self.rows.append((p, [inv * y for y in v]))
                return True
        return False


class Matrix:
    """An immutable dense matrix over a Field.

    Entries are stored row-major as a tuple of tuples.  ``m[i]`` is row i,
    ``m[i, j]`` an entry.  Arithmetic checks field and shape compatibility
    and raises FieldMismatch / NotSquare accordingly.  Zero-by-n and n-by-zero
    shapes are fully supported.
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: Iterable[Iterable], cols: int | None = None):
        data = tuple(tuple(field.of(x) for x in row) for row in rows)
        if data:
            ncols = len(data[0])
            for row in data:
                if len(row) != ncols:
                    raise FieldMismatch("ragged rows in matrix construction")
            if cols is not None and cols != ncols:
                raise FieldMismatch("explicit column count disagrees with rows")
        else:
            ncols = 0 if cols is None else cols
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(field: Field, r: int, c: int) -> "Matrix":
        return Matrix(field, [[field.zero] * c for _ in range(r)], cols=c)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix(
            field,
            [[field.one if i == j else field.zero for j in range(n)] for i in range(n)],
            cols=n,
        )

    @staticmethod
    def row_vector(field: Field, entries: Sequence) -> "Matrix":
        return Matrix(field, [list(entries)], cols=len(entries))

    @staticmethod
    def col_vector(field: Field, entries: Sequence) -> "Matrix":
        return Matrix(field, [[e] for e in entries], cols=1)

    @staticmethod
    def from_lists(field: Field, lists, path: str = "matrix") -> "Matrix":
        """Parse a JSON array-of-arrays of exact scalars."""
        if not isinstance(lists, list):
            raise SchemaError(path, "expected an array of rows")
        rows = []
        width = None
        for i, row in enumerate(lists):
            if not isinstance(row, list):
                raise SchemaError(f"{path}[{i}]", "expected an array of scalars")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise SchemaError(f"{path}[{i}]", "ragged row")
            parsed = []
            for j, x in enumerate(row):
                try:
                    parsed.append(field.parse(x))
                except (FieldMismatch, ValueError, ZeroDivisionError) as e:
                    raise SchemaError(f"{path}[{i}][{j}]", str(e)) from None
            rows.append(parsed)
        return Matrix(field, rows, cols=width or 0)

    def to_lists(self) -> list:
        return [[self.field.format(x) for x in row] for row in self.data]

    # -- basic structure ---------------------------------------------------

    def __getitem__(self, idx):
        if isinstance(idx, tuple):
            i, j = idx
            return self.data[i][j]
        return self.data[idx]

    def flat(self) -> tuple:
        return tuple(x for row in self.data for x in row)

    def row(self, i: int) -> tuple:
        return self.data[i]

    def column(self, j: int) -> tuple:
        return tuple(self.data[i][j] for i in range(self.rows))

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for row in self.data for x in row)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.data))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"Matrix({self.rows}x{self.cols})"
        body = "; ".join(
            " ".join(self.field.format(x) for x in row) for row in self.data
        )
        return f"Matrix[{body}]"

    def _check_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.rows != other.rows or self.cols != other.cols:
            raise FieldMismatch("matrix shapes differ in addition")
        return Matrix(
            self.field,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ],
            cols=self.cols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, [[-x for x in row] for row in self.data], cols=self.cols)

    def scale(self, s) -> "Matrix":
        s = self.field.of(s)
        return Matrix(self.field, [[s * x for x in row] for row in self.data], cols=self.cols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check_field(other)
            if self.cols != other.rows:
                raise FieldMismatch(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            cols = list(zip(*other.data)) if other.rows else [()] * other.cols
            return Matrix(
                self.field,
                [[_dot(row, col, self.field) for col in cols] for row in self.data],
                cols=other.cols,
            )
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int) -> "Matrix":
        if self.rows != self.cols:
            raise NotSquare("matrix power of a non-square matrix")
        acc = Matrix.identity(self.field, self.rows)
        for _ in range(n):
            acc = acc * self
        return acc

    def trace(self):
        if self.rows != self.cols:
            raise NotSquare("trace of a non-square matrix")
        s = self.field.zero
        for i in range(self.rows):
            s = s + self.data[i][i]
        return s

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and pivot columns.

        Pivoting is deterministic: leftmost nonzero column, topmost
        available row, no magnitude-based choices.
        """
        F = self.field
        work = [list(row) for row in self.data]
        pivots: list[int] = []
        pr = 0
        for c in range(self.cols):
            sel = None
            for r in range(pr, self.rows):
                if work[r][c]:
                    sel = r
                    break
            if sel is None:
                continue
            work[pr], work[sel] = work[sel], work[pr]
            inv = F.one / work[pr][c]
            prow = work[pr] = [inv * x for x in work[pr]]
            for r in range(self.rows):
                f = work[r][c]
                if r != pr and f:
                    # zero entries of the pivot row leave the entry as it is
                    work[r] = [x - f * y if y else x for x, y in zip(work[r], prow)]
            pivots.append(c)
            pr += 1
            if pr == self.rows:
                break
        return Matrix(F, work, cols=self.cols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list["Matrix"]:
        """Basis of the right kernel as column vectors, one per free column
        of the rref, in ascending column order."""
        R, pivots = self.rref()
        F = self.field
        pivset = set(pivots)
        basis = []
        for fc in range(self.cols):
            if fc in pivset:
                continue
            v = [F.zero] * self.cols
            v[fc] = F.one
            for r, pc in enumerate(pivots):
                v[pc] = -R.data[r][fc]
            basis.append(Matrix.col_vector(F, v))
        return basis

    def solve(self, rhs: "Matrix") -> "Matrix | None":
        """One solution X of self * X = rhs (free variables set to zero), or
        None if the system is inconsistent."""
        self._check_field(rhs)
        if self.rows != rhs.rows:
            raise FieldMismatch("solve: row counts differ")
        aug = hstack([self, rhs])
        R, pivots = aug.rref()
        for p in pivots:
            if p >= self.cols:
                return None
        F = self.field
        out = [[F.zero] * rhs.cols for _ in range(self.cols)]
        for r, pc in enumerate(pivots):
            for j in range(rhs.cols):
                out[pc][j] = R.data[r][self.cols + j]
        return Matrix(F, out, cols=rhs.cols)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise NotSquare("inverse of a non-square matrix")
        sol = self.solve(Matrix.identity(self.field, self.rows))
        if sol is None or (sol * self) != Matrix.identity(self.field, self.rows):
            raise SingularMatrix("matrix is not invertible")
        return sol

    # -- characteristic polynomial ----------------------------------------

    def char_poly(self) -> "Polynomial":
        """Monic characteristic polynomial det(T*I - A), division-free
        (Berkowitz), ascending coefficients."""
        if self.rows != self.cols:
            raise NotSquare("characteristic polynomial of a non-square matrix")
        F = self.field
        n = self.rows
        V = [F.one]
        for r in range(1, n + 1):
            a = self.data[r - 1][r - 1]
            R = self.data[r - 1][: r - 1]
            vec = [self.data[i][r - 1] for i in range(r - 1)]
            t = [F.one, -a]
            for k in range(2, r + 1):
                t.append(-_dot(R, vec, F))
                if k < r:
                    vec = [
                        _dot(self.data[i][: r - 1], vec, F) for i in range(r - 1)
                    ]
            Vnew = []
            for i in range(r + 1):
                s = F.zero
                lo = max(0, i - (len(t) - 1))
                hi = min(i, len(V) - 1)
                for j in range(lo, hi + 1):
                    s = s + t[i - j] * V[j]
                Vnew.append(s)
            V = Vnew
        return Polynomial(F, list(reversed(V)))

    def det(self):
        cp = self.char_poly()
        c0 = cp.coeff(0)
        return -c0 if self.rows % 2 else c0


def hstack(mats: Sequence[Matrix]) -> Matrix:
    if not mats:
        raise FieldMismatch("hstack of nothing")
    F = mats[0].field
    r = mats[0].rows
    for m in mats:
        if m.field != F:
            raise FieldMismatch("hstack over different fields")
        if m.rows != r:
            raise FieldMismatch("hstack with differing row counts")
    rows = [sum((list(m.data[i]) for m in mats), []) for i in range(r)]
    return Matrix(F, rows, cols=sum(m.cols for m in mats))


def vstack(mats: Sequence[Matrix]) -> Matrix:
    if not mats:
        raise FieldMismatch("vstack of nothing")
    F = mats[0].field
    c = mats[0].cols
    for m in mats:
        if m.field != F:
            raise FieldMismatch("vstack over different fields")
        if m.cols != c:
            raise FieldMismatch("vstack with differing column counts")
    rows = [list(row) for m in mats for row in m.data]
    return Matrix(F, rows, cols=c)


class Polynomial:
    """Univariate polynomial with ascending exact coefficients.

    Normalized on construction: trailing zeros stripped, so the zero
    polynomial has an empty coefficient tuple and ``deg == -1``.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable):
        cs = [field.of(c) for c in coeffs]
        while cs and cs[-1] == field.zero:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def zero(field: Field) -> "Polynomial":
        return Polynomial(field, [])

    @staticmethod
    def one(field: Field) -> "Polynomial":
        return Polynomial(field, [field.one])

    @staticmethod
    def constant(field: Field, c) -> "Polynomial":
        return Polynomial(field, [c])

    @staticmethod
    def monomial(field: Field, k: int, c=1) -> "Polynomial":
        return Polynomial(field, [field.zero] * k + [c])

    @staticmethod
    def from_list(field: Field, lst, path: str = "poly") -> "Polynomial":
        if not isinstance(lst, list):
            raise SchemaError(path, "expected an array of ascending coefficients")
        out = []
        for i, c in enumerate(lst):
            try:
                out.append(field.parse(c))
            except (FieldMismatch, ValueError, ZeroDivisionError) as e:
                raise SchemaError(f"{path}[{i}]", str(e)) from None
        return Polynomial(field, out)

    def to_list(self) -> list:
        return [self.field.format(c) for c in self.coeffs]

    @property
    def deg(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def leading(self):
        if self.is_zero():
            return self.field.zero
        return self.coeffs[-1]

    def _check_field(self, other: "Polynomial"):
        if self.field != other.field:
            raise FieldMismatch("polynomials over different fields")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            self.field, [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            self.field, [self.coeff(i) - other.coeff(i) for i in range(n)]
        )

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, [-c for c in self.coeffs])

    def scale(self, s) -> "Polynomial":
        s = self.field.of(s)
        return Polynomial(self.field, [s * c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_field(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.field)
        F = self.field
        out = [F.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == F.zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(F, out)

    def __rmul__(self, other):
        return self.scale(other)

    def __divmod__(self, other: "Polynomial"):
        self._check_field(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        qlen = max(0, len(rem) - len(other.coeffs) + 1)
        q = [F.zero] * qlen
        dl = other.coeffs[-1]
        dlen = len(other.coeffs)
        while len(rem) >= dlen:
            if rem[-1] == F.zero:
                rem.pop()
                continue
            shift = len(rem) - dlen
            c = rem[-1] / dl
            q[shift] = c
            for i, oc in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - c * oc
            rem.pop()
        return Polynomial(F, q), Polynomial(F, rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == self.field.one:
            return self
        inv = self.field.one / lead
        return self.scale(inv)

    def derivative(self) -> "Polynomial":
        F = self.field
        return Polynomial(
            F, [F.of(i) * c for i, c in enumerate(self.coeffs)][1:]
        )

    def eval_at(self, x):
        x = self.field.of(x)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def reversed_poly(self, n: int | None = None) -> "Polynomial":
        """T^n * p(1/T): coefficients reversed into degree-n window.
        Defaults to n = deg; requires n >= deg."""
        if self.is_zero():
            return self
        if n is None:
            n = self.deg
        if n < self.deg:
            raise FieldMismatch("reversal window smaller than the degree")
        return Polynomial(self.field, [self.coeff(n - j) for j in range(n + 1)])

    def shifted(self, k: int) -> "Polynomial":
        """Multiply by T^k."""
        if self.is_zero():
            return self
        return Polynomial(self.field, [self.field.zero] * k + list(self.coeffs))

    def divides(self, other: "Polynomial") -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "Poly[0]"
        terms = ", ".join(self.field.format(c) for c in self.coeffs)
        return f"Poly[{terms}]"


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with deterministic pivoting; returns
    (rref matrix, pivot column indices)."""
    return m.rref()


def kernel_basis(m: Matrix) -> list[Matrix]:
    """Deterministic basis of the right kernel (column vectors)."""
    return m.kernel_basis()


def char_poly(m: Matrix) -> Polynomial:
    """Monic characteristic polynomial, division-free."""
    return m.char_poly()


def poly_gcd_lcm(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Monic gcd and monic lcm.  gcd(0, 0) = 0; lcm(a, 0) = 0 for a != 0;
    lcm(0, 0) raises BothZero."""
    a._check_field(b)
    g, h = a, b
    while not h.is_zero():
        g, h = h, g % h
    g = g.monic()
    if a.is_zero() and b.is_zero():
        raise BothZero("lcm of two zero polynomials is undefined")
    if a.is_zero() or b.is_zero():
        return g, Polynomial.zero(a.field)
    lcm = ((a * b) // g).monic()
    return g, lcm
