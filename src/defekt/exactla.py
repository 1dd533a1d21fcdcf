"""Exact linear algebra over the rationals and over prime fields.

Scalars are ``fractions.Fraction`` (rationals, kept in lowest terms with a
positive denominator by the stdlib) or :class:`FpValue` (residues mod p,
stored in ``[0, p)``).  Matrices are immutable dense row-major arrays and
polynomials are immutable ascending coefficient arrays with no trailing
zero.

Both store their entries once, as integers over one denominator (the
layout of FLINT's ``fmpq_mat`` and ``fmpq_poly``): residues in ``[0, p)``
over F_p, and over QQ numerators over a positive denominator that shares
no factor with all of them.  Products, sums, division, gcds, elimination
and solving run on these ints, and one routine (``_canonical``) puts a
result back in that canonical form, so equal matrices or polynomials are
equal structurally.  One elimination kernel serves both fields: over F_p,
rows reduced mod p with one modular inverse per pivot; over QQ,
fraction-free (Bareiss) Gauss-Jordan on the numerators, over the last
pivot at the end.  Field values (``Fraction``, ``FpValue``) are made only
where a matrix or polynomial is read entry by entry.

No floating point is used anywhere, and every algorithm is deterministic:
row reduction always picks the leftmost nonzero column and the topmost
available row, so results are identical across runs and do not depend on
hash order.
"""
from __future__ import annotations

import re
import reprlib
from fractions import Fraction
from functools import cached_property
from itertools import chain, zip_longest
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import (
    BothZero,
    FieldMismatch,
    InvalidArgument,
    NotSquare,
    SchemaError,
    SingularMatrix,
    SizeBound,
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
    "field_from_json",
    "hstack",
    "poly_gcd",
    "poly_gcd_lcm",
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


# Miller-Rabin with the primes up to 41 as bases decides primality exactly
# below this bound; a larger modulus is refused.
PRIME_BOUND = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality for 0 <= n < PRIME_BOUND."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The scalars ``Field.format`` writes.  Each part has at most 4,300 digits,
# Python's default limit for converting between int and str, so every
# written value reads back and a short string cannot denote a huge number
# (``Fraction("1e999999999999")`` would compute 10**(10**12)).
_SCALAR = re.compile(r"([+-]?[0-9]{1,4300})(?:/([0-9]{1,4300}))?")


def _scalar(v) -> tuple[int, int]:
    """The numerator and positive denominator, as written, of one JSON
    scalar: an int, or a string ``[+-]digits`` or ``[+-]digits/digits`` with
    at most 4,300 digits in each part, which is what :meth:`Field.format`
    writes.  Anything else, or a zero denominator, raises FieldMismatch.
    Only text the grammar has matched reaches ``int``, which would also
    take " 3", "1_000" and "\u0663"."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v, 1
    m = _SCALAR.fullmatch(v) if isinstance(v, str) else None
    if m is None:
        raise FieldMismatch(
            f"scalar {reprlib.repr(v)} is not an int or a string [+-]digits "
            "or [+-]digits/digits with at most 4300 digits in each part")
    if m[2] is None:
        return int(m[1]), 1
    den = int(m[2])
    if not den:
        raise FieldMismatch(f"scalar {reprlib.repr(v)} has a zero denominator")
    return int(m[1]), den


def _collect(exact, doc, shape: tuple, path: str, out: list, at: tuple = ()) -> None:
    """Append ``exact`` of each scalar of a JSON array of ``shape`` to out.
    The array is ``path`` indexed by ``at``; that text is built only for
    an error."""
    n = shape[0]
    if not isinstance(doc, list) or len(doc) != n:
        what = ("an array of {} scalars", "{} rows", "{} planes")[len(shape) - 1]
        raise SchemaError(_indexed(path, at), "expected " + what.format(n))
    if len(shape) > 1:
        inner = shape[1:]
        for i, x in enumerate(doc):
            _collect(exact, x, inner, path, out, at + (i,))
        return
    for i, x in enumerate(doc):
        try:
            out.append(exact(x))
        except FieldMismatch as e:
            raise SchemaError(_indexed(path, at + (i,)), str(e)) from None


def _indexed(path: str, at: tuple) -> str:
    return path + "".join(f"[{i}]" for i in at)


class Field:
    """Abstract ground field: the rationals or a prime field F_p.

    Every JSON scalar is read by :func:`_scalar`, then either to a field
    value (``_value``) or straight to its integer form (``_exact``: a
    residue over F_p, a lowest-terms (numerator, denominator) over QQ).
    ``_read`` reads a whole array, each entry reduced on its own, so that
    spellings such as "q/q" cannot inflate the common denominator."""

    char: int
    name: str
    zero: object
    one: object

    def of(self, v):
        raise NotImplementedError

    def parse(self, v):
        """Read one scalar of a JSON document (see :func:`_scalar`); over
        F_p a denominator that p divides in lowest terms raises
        FieldMismatch too."""
        return self._value(*_scalar(v))

    def _read(self, doc, shape: tuple, path: str) -> tuple[tuple, int]:
        """A JSON array of shape (n,), (rows, cols) or (n, n, n) as (ints,
        d), its scalars' ``_exact`` forms flat in row-major order over their
        lcm d (residues over F_p, d = 1).  This is canonical: a prime that
        divides d divides some entry's reduced denominator fully, so not its
        numerator.  A bad shape raises SchemaError at the path of its array,
        a bad entry at its own path, ``path[i]...``."""
        out: list = []
        _collect(self._exact, doc, shape, path, out)
        return self._over_one_denominator(out)

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
        if isinstance(v, FpValue):
            raise FieldMismatch("prime-field value used where a rational was expected")
        raise FieldMismatch(f"cannot interpret {v!r} as a rational scalar")

    _value = Fraction

    @staticmethod
    def _exact(v) -> tuple[int, int]:
        n, d = _scalar(v)
        if d == 1:
            return n, 1
        g = gcd(n, d)
        return n // g, d // g

    @staticmethod
    def _over_one_denominator(pairs) -> tuple[tuple, int]:
        d = lcm(*[q for _, q in pairs])
        return tuple([n * (d // q) for n, q in pairs]), d

    def format(self, x) -> str:
        try:
            return str(x)
        except ValueError:  # a part over Python's 4,300-digit str limit
            raise SizeBound("a result scalar has a part of more than 4300 "
                            "digits, which cannot be written") from None

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
        if p >= PRIME_BOUND:
            raise InvalidArgument(
                f"{p} is not below {PRIME_BOUND}, the bound of exact "
                "primality testing"
            )
        if not _is_prime(p):
            raise FieldMismatch(f"{p} is not prime")
        self.p = p
        self.char = p

    # built on first use, so reading a document's field makes no FpValue
    zero = cached_property(lambda self: FpValue(0, self.p))
    one = cached_property(lambda self: FpValue(1, self.p))

    def of(self, v):
        if isinstance(v, FpValue):
            if v.p != self.p:
                raise FieldMismatch(f"residue mod {v.p} used in F_{self.p}")
            return v
        if isinstance(v, int):
            return FpValue(v, self.p)
        if isinstance(v, Fraction):
            return self._value(v.numerator, v.denominator)
        raise FieldMismatch(f"cannot interpret {v!r} as a scalar in F_{self.p}")

    def _residue(self, n: int, d: int) -> int:
        """n / d mod p for d > 0; raises FieldMismatch when p divides the
        denominator of n / d in lowest terms."""
        p = self.p
        if d == 1:
            return n % p
        if d % p == 0:
            g = gcd(n, d)
            n, d = n // g, d // g
            if d % p == 0:
                raise FieldMismatch(f"denominator {d} is divisible by {p}")
        return n * pow(d, -1, p) % p

    def _value(self, n: int, d: int) -> FpValue:
        return FpValue(self._residue(n, d), self.p)

    def _exact(self, v) -> int:
        return self._residue(*_scalar(v))

    @staticmethod
    def _over_one_denominator(residues) -> tuple[tuple, int]:
        return tuple(residues), 1

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
        try:
            return PrimeField(p)
        except (FieldMismatch, InvalidArgument) as e:
            raise SchemaError(f"{path}.p", str(e)) from None
    raise SchemaError(f"{path}.type", f"unknown field type {t!r}")


# -- integer kernels ----------------------------------------------------------
#
# Elimination on raw integers: residues in [0, p) for F_p, the numerators
# of a matrix over its denominator for QQ.  It pivots on the leftmost
# nonzero column and the topmost available row; the reduced row echelon
# form is unique, so its output is the one Gauss-Jordan on the scalar
# objects would give.


def _ints(F: Field, xs) -> tuple[list, int]:
    """Field values as integers over one common denominator d, the lcm of
    their denominators: (ints, d).  Over F_p the residues, with d = 1.
    For values in lowest terms (as every ``Fraction`` is) no prime divides
    d and all the ints, so this is the canonical form of :class:`Matrix`."""
    if F.char:
        return [x.v for x in xs], 1
    d = lcm(*[x.denominator for x in xs])
    return [x.numerator * (d // x.denominator) for x in xs], d


def _wrap(F: Field, ints, d: int) -> tuple:
    """The field values v / d of integers v, each wrapped once; over F_p,
    d is 1 and v any int, and zero and one share the field's."""
    zero = F.zero
    if F.char:
        p, one = F.char, F.one
        return tuple(zero if r == 0 else one if r == 1 else FpValue(r, p)
                     for r in (v % p for v in ints))
    return tuple(Fraction(v, d) if v else zero for v in ints)


def _canonical(p: int, ints, d: int) -> tuple[tuple, int]:
    """(ints, d) in the canonical form of Matrix and Polynomial (d nonzero,
    prime to p over F_p): residues in [0, p) over 1, or over QQ ints over a
    positive denominator that shares no factor with all of them."""
    if p:
        s = pow(d, -1, p)
        return tuple(x * s % p for x in ints) if s != 1 else tuple(x % p for x in ints), 1
    g = gcd(d, *ints) if d > 0 else -gcd(d, *ints)
    return tuple(x // g for x in ints) if g != 1 else tuple(ints), d // g


def _pair(F: Field, s) -> tuple[int, int]:
    """A scalar as (numerator, positive denominator), (residue, 1) over F_p."""
    s = F.of(s)
    return (s.v, 1) if F.char else (s.numerator, s.denominator)


def _joined(mats) -> tuple[list, int]:
    """The entries of the matrices, in order and each row-major, as ints
    over one denominator, the lcm of theirs (1 over F_p)."""
    d = lcm(*[m._den for m in mats])
    out: list = []
    for m in mats:
        s = d // m._den
        out += m._num if s == 1 else [x * s for x in m._num]
    return out, d


def _rref(p: int, work: list, ncols: int) -> tuple[int, tuple[int, ...]]:
    """Reduce the integer rows ``work`` in place; the denominator d of the
    rref they then hold, and the pivot columns.

    Over F_p (p > 0) the rows are residues, each pivot row is scaled by one
    modular inverse and d is 1.  Over QQ (p == 0) the reduction is
    fraction-free: after a pivot a, every other row becomes
    (a*row - f*pivot row) / prev, an exact division (each entry is a minor
    of the matrix), so every pivot row ends with the last pivot d at its
    pivot."""
    nrows = len(work)
    pivots: list[int] = []
    pr = 0
    prev = 1
    for c in range(ncols):
        sel = next((r for r in range(pr, nrows) if work[r][c]), None)
        if sel is None:
            continue
        work[pr], work[sel] = work[sel], work[pr]
        if p:
            # columns left of c are zero in the pivot row, so only the tail moves
            inv = pow(work[pr][c], -1, p)
            tail = [inv * x % p for x in work[pr][c:]]
            work[pr] = [0] * c + tail
            for r in range(nrows):
                row = work[r]
                f = row[c]
                if f and r != pr:
                    row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
        else:
            prow = work[pr]
            a = prow[c]
            for r in range(nrows):
                if r == pr:
                    continue
                row = work[r]
                f = row[c]
                if f:
                    work[r] = [(a * x - f * y) // prev for x, y in zip(row, prow)]
                elif a != prev:
                    # rows with f == 0 are scaled too, keeping the common pivot
                    work[r] = [a * x // prev for x in row]
            prev = a
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    return prev, tuple(pivots)


class Echelon:
    """Incremental row echelon form for independence testing, on integers.

    ``add`` takes a vector of ints, read mod p over F_p; over QQ it may be
    any nonzero multiple of the rationals it stands for, such as the
    numerators of a :class:`Matrix`, since scaling does not change
    independence.  It reduces the vector by the rows kept so far, in the
    order they were kept, and keeps the remainder when it is nonzero.  Fed
    the columns of a matrix in order, each as ints scaled by any nonzero
    integer, it accepts exactly the pivot columns of the matrix's rref.
    Rows are kept as ints: residues with a leading 1 over F_p, integer rows
    with no common factor over QQ, reduced fraction-free.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field: Field):
        self.field = field
        self.rows: list[tuple[int, list]] = []  # (pivot index, integer row)

    def add(self, vec) -> bool:
        """Keep the vector if it is independent of the span; True if kept."""
        p = self.field.char
        v = [x % p for x in vec] if p else list(vec)
        for i, row in self.rows:
            c = v[i]
            if c:
                if p:
                    v = [(x - c * y) % p for x, y in zip(v, row)]
                else:
                    a = row[i]
                    g = gcd(a, c)
                    a, c = a // g, c // g
                    v = [a * x - c * y for x, y in zip(v, row)]
        for i, x in enumerate(v):
            if x:
                if p:
                    inv = pow(x, -1, p)
                    v = [inv * y % p for y in v]
                else:
                    g = gcd(*v)
                    v = [y // g for y in v]
                self.rows.append((i, v))
                return True
        return False


class Matrix:
    """An immutable dense matrix over a Field.

    The entries are stored once, as ``_num``, a flat row-major tuple of
    ints, over one denominator ``_den``, in canonical form, so equality and
    hashing are structural: over F_p residues in [0, p) over 1; over QQ a
    positive ``_den`` sharing no factor with all the numerators (1 for the
    zero matrix).  Every operation runs on these ints, and
    :meth:`_of_ints` puts a result in canonical form.  The reads ``data``
    (built on first read and kept), ``m[i]``, ``m[i, j]``, ``row``,
    ``column``, ``flat``, ``to_lists`` and ``trace()`` give ``Fraction`` or
    ``FpValue`` entries.  Arithmetic checks field and shape compatibility
    and raises FieldMismatch / NotSquare accordingly.  Zero-by-n and
    n-by-zero shapes are fully supported.
    """

    __slots__ = ("field", "rows", "cols", "_num", "_den", "_data")

    def __init__(self, field: Field, rows: Iterable[Iterable], cols: int | None = None):
        data = tuple(tuple(field.of(x) for x in row) for row in rows)
        ncols = len(data[0]) if data else cols or 0
        if any(len(row) != ncols for row in data):
            raise FieldMismatch("ragged rows in matrix construction")
        if data and cols is not None and cols != ncols:
            raise FieldMismatch("explicit column count disagrees with rows")
        num, d = _ints(field, [x for row in data for x in row])
        self._set(field, len(data), ncols, tuple(num), d, data)

    def _set(self, field, rows, cols, num, den, data):
        put = object.__setattr__
        put(self, "field", field)
        put(self, "rows", rows)
        put(self, "cols", cols)
        put(self, "_num", num)
        put(self, "_den", den)
        put(self, "_data", data)

    @classmethod
    def _raw(cls, field: Field, num: tuple, den: int, rows: int, cols: int) -> "Matrix":
        """The matrix of ``num`` over ``den``, which must already be in
        canonical form."""
        m = object.__new__(cls)
        m._set(field, rows, cols, num, den, None)
        return m

    @classmethod
    def _of_ints(cls, field: Field, ints, d: int, rows: int, cols: int) -> "Matrix":
        """The rows x cols matrix of the integers ``ints`` (flat, row-major)
        over ``d`` (nonzero; prime to p over F_p), in canonical form."""
        return cls._raw(field, *_canonical(field.char, ints, d), rows, cols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __delattr__(self, name):
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(field: Field, r: int, c: int) -> "Matrix":
        return Matrix._raw(field, (0,) * (r * c), 1, r, c)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix._raw(field, tuple(int(i == j) for i in range(n) for j in range(n)),
                           1, n, n)

    @staticmethod
    def row_vector(field: Field, entries: Sequence) -> "Matrix":
        return Matrix(field, [list(entries)], cols=len(entries))

    @staticmethod
    def col_vector(field: Field, entries: Sequence) -> "Matrix":
        return Matrix(field, [[e] for e in entries], cols=1)

    @staticmethod
    def from_lists(field: Field, lists, rows: int, cols: int,
                   path: str = "matrix") -> "Matrix":
        """Read a JSON array of ``rows`` arrays of ``cols`` exact scalars
        (see :meth:`Field._read` for the paths of errors), built as read:
        the reader's ints are already canonical."""
        return Matrix._raw(field, *field._read(lists, (rows, cols), path), rows, cols)

    def to_lists(self) -> list:
        return [[self.field.format(x) for x in row] for row in self.data]

    # -- basic structure ---------------------------------------------------

    @property
    def data(self) -> tuple:
        """The rows of field values, built on first read and kept."""
        if self._data is None:
            vals, c = _wrap(self.field, self._num, self._den), self.cols
            object.__setattr__(self, "_data",
                               tuple(vals[i * c:(i + 1) * c] for i in range(self.rows)))
        return self._data

    def __getitem__(self, idx):
        if isinstance(idx, tuple):
            return self.data[idx[0]][idx[1]]
        return self.data[idx]

    def flat(self) -> tuple:
        return tuple(chain.from_iterable(self.data))

    def row(self, i: int) -> tuple:
        return self.data[i]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    def _sub(self, rows=None, cols=None) -> "Matrix":
        """The submatrix on the given row and column indices (all when
        None), in their order."""
        c, num = self.cols, self._num
        rows = range(self.rows) if rows is None else rows
        cols = range(c) if cols is None else cols
        sub = [num[r * c + j] for r in rows for j in cols]
        # residues stay canonical; over QQ the kept numerators may share a
        # factor with the denominator
        if self.field.char:
            return Matrix._raw(self.field, tuple(sub), 1, len(rows), len(cols))
        return Matrix._of_ints(self.field, sub, self._den, len(rows), len(cols))

    def transpose(self) -> "Matrix":
        c, num = self.cols, self._num
        return Matrix._raw(self.field, tuple(chain.from_iterable(num[j::c] for j in range(c))),
                           self._den, c, self.rows)

    def is_zero(self) -> bool:
        return not any(self._num)

    def _key(self) -> tuple:
        return self.field, self.rows, self.cols, self._den, self._num

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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

    def _plus(self, other: "Matrix", sign: int) -> "Matrix":
        self._check_field(other)
        if self.rows != other.rows or self.cols != other.cols:
            raise FieldMismatch("matrix shapes differ in addition")
        d = lcm(self._den, other._den)
        s, t = d // self._den, sign * (d // other._den)
        return Matrix._of_ints(self.field, [s * x + t * y for x, y in zip(self._num, other._num)],
                               d, self.rows, self.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1)

    def __neg__(self) -> "Matrix":
        p = self.field.char
        return Matrix._raw(self.field, tuple(-x % p if p else -x for x in self._num),
                           self._den, self.rows, self.cols)

    def scale(self, s) -> "Matrix":
        n, d = _pair(self.field, s)
        return Matrix._of_ints(self.field, [n * x for x in self._num], d * self._den,
                               self.rows, self.cols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check_field(other)
            n, c = self.cols, other.cols
            if n != other.rows:
                raise FieldMismatch(
                    f"cannot multiply {self.rows}x{n} by {other.rows}x{c}"
                )
            a, b = self._num, other._num
            bcols = [b[j::c] for j in range(c)]
            out = [sum(map(mul, a[i * n:(i + 1) * n], col))
                   for i in range(self.rows) for col in bcols]
            return Matrix._of_ints(self.field, out, self._den * other._den, self.rows, c)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int) -> "Matrix":
        if self.rows != self.cols:
            raise NotSquare("matrix power of a non-square matrix")
        if n < 0:
            raise InvalidArgument(f"matrix power {n} is negative")
        acc = Matrix.identity(self.field, self.rows)
        for _ in range(n):
            acc = acc * self
        return acc

    def trace(self):
        if self.rows != self.cols:
            raise NotSquare("trace of a non-square matrix")
        return self.field._value(sum(self._num[::self.cols + 1]), self._den)

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and pivot columns.

        Pivoting is deterministic: leftmost nonzero column, topmost
        available row, no magnitude-based choices.
        """
        c = self.cols
        # over QQ the numerators have the rref of the matrix itself
        work = [list(self._num[i * c:(i + 1) * c]) for i in range(self.rows)]
        d, pivots = _rref(self.field.char, work, c)
        flat = [x for row in work for x in row]
        # over F_p _rref leaves residues in [0, p) over 1
        if self.field.char:
            return Matrix._raw(self.field, tuple(flat), 1, self.rows, c), pivots
        return Matrix._of_ints(self.field, flat, d, self.rows, c), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list["Matrix"]:
        """Basis of the right kernel as column vectors, one per free column
        of the rref, in ascending column order.  Vector i is 1 at the i-th
        free column and 0 at the other free columns and at every column
        after the i-th free one."""
        R, pivots = self.rref()
        c, num, d = self.cols, R._num, R._den
        basis = []
        for fc in sorted(set(range(c)).difference(pivots)):
            v = [0] * c
            v[fc] = d
            for r, pc in enumerate(pivots):
                v[pc] = -num[r * c + fc]
            basis.append(Matrix._of_ints(self.field, v, d, c, 1))
        return basis

    def solve(self, rhs: "Matrix") -> "Matrix | None":
        """One solution X of self * X = rhs (free variables set to zero), or
        None if the system is inconsistent."""
        self._check_field(rhs)
        if self.rows != rhs.rows:
            raise FieldMismatch("solve: row counts differ")
        n, k = self.cols, rhs.cols
        R, pivots = hstack([self, rhs]).rref()
        if pivots and pivots[-1] >= n:
            return None
        out = [0] * (n * k)
        for r, pc in enumerate(pivots):
            start = r * (n + k) + n
            out[pc * k:(pc + 1) * k] = R._num[start:start + k]
        return Matrix._of_ints(self.field, out, R._den, n, k)

    def inverse(self) -> "Matrix":
        """A^-1.  When A X = I is consistent for a square A, A has full
        rank, so the one solution ``solve`` gives is the inverse."""
        if self.rows != self.cols:
            raise NotSquare("inverse of a non-square matrix")
        sol = self.solve(Matrix.identity(self.field, self.rows))
        if sol is None:
            raise SingularMatrix("matrix is not invertible")
        return sol


def _check_stack(mats: Sequence[Matrix], name: str, side: str) -> None:
    """The matrices must be some, over one field, and agree in ``side``."""
    if not mats:
        raise FieldMismatch(f"{name} of nothing")
    if any(m.field != mats[0].field for m in mats):
        raise FieldMismatch(f"{name} over different fields")
    if any(getattr(m, side) != getattr(mats[0], side) for m in mats):
        noun = {"rows": "row", "cols": "column"}[side]
        raise FieldMismatch(f"{name} with differing {noun} counts")


def hstack(mats: Sequence[Matrix]) -> Matrix:
    _check_stack(mats, "hstack", "rows")
    d = lcm(*[m._den for m in mats])
    parts = [(m.cols, m._num if m._den == d else [x * (d // m._den) for x in m._num])
             for m in mats]
    num = [x for i in range(mats[0].rows) for c, p in parts for x in p[i * c:(i + 1) * c]]
    # as for vstack, the result is canonical
    return Matrix._raw(mats[0].field, tuple(num), d, mats[0].rows, sum(c for c, _ in parts))


def vstack(mats: Sequence[Matrix]) -> Matrix:
    _check_stack(mats, "vstack", "cols")
    # canonical matrices brought over the lcm of their denominators stay
    # canonical when stacked
    num, d = _joined(mats)
    return Matrix._raw(mats[0].field, tuple(num), d, sum(m.rows for m in mats), mats[0].cols)


class Polynomial:
    """Univariate polynomial with ascending exact coefficients.

    Stored once in the layout of :class:`Matrix` (FLINT's ``fmpq_poly``):
    ``_num``, ints with no trailing zero, over one denominator ``_den``, in
    the canonical form of :func:`_canonical`; the zero polynomial is ``()``
    over 1, with ``deg == -1``.  Every operation runs on these ints, and
    ``coeffs``, ``coeff``, ``leading`` and ``eval_at`` give field values.
    """

    __slots__ = ("field", "_num", "_den")

    def __init__(self, field: Field, coeffs: Iterable):
        self._set(field, *_ints(field, [field.of(c) for c in coeffs]))

    def _set(self, field, ints, d):
        num, den = _canonical(field.char, ints, d)
        n = len(num)
        while n and not num[n - 1]:
            n -= 1
        for name, value in (("field", field), ("_num", num[:n]), ("_den", den)):
            object.__setattr__(self, name, value)

    @classmethod
    def _of_ints(cls, field: Field, ints, d: int = 1) -> "Polynomial":
        """The polynomial of ascending ints over d (nonzero; prime to p over F_p)."""
        f = object.__new__(cls)
        f._set(field, ints, d)
        return f

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __delattr__(self, name):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def zero(field: Field) -> "Polynomial":
        return Polynomial._of_ints(field, ())

    @staticmethod
    def one(field: Field) -> "Polynomial":
        return Polynomial._of_ints(field, (1,))

    @property
    def coeffs(self) -> tuple:
        """The ascending coefficients as field values, wrapped on each read."""
        return _wrap(self.field, self._num, self._den)

    def to_list(self) -> list:
        return [self.field.format(c) for c in self.coeffs]

    @property
    def deg(self) -> int:
        return len(self._num) - 1

    def is_zero(self) -> bool:
        return not self._num

    def coeff(self, i: int):
        if 0 <= i < len(self._num):
            return self.field._value(self._num[i], self._den)
        return self.field.zero

    def leading(self):
        return self.coeff(self.deg)

    def _check_field(self, other: "Polynomial"):
        if self.field != other.field:
            raise FieldMismatch("polynomials over different fields")

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        self._check_field(other)
        d = lcm(self._den, other._den)
        s, t = d // self._den, sign * (d // other._den)
        return Polynomial._of_ints(self.field, [
            s * x + t * y for x, y in zip_longest(self._num, other._num, fillvalue=0)], d)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of_ints(self.field, [-x for x in self._num], self._den)

    def scale(self, s) -> "Polynomial":
        n, d = _pair(self.field, s)
        return Polynomial._of_ints(self.field, [n * x for x in self._num], d * self._den)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_field(other)
        a, b = self._num, other._num
        out = [0] * max(0, len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Polynomial._of_ints(self.field, out, self._den * other._den)

    def __rmul__(self, other):
        return self.scale(other)

    def __divmod__(self, other: "Polynomial"):
        self._check_field(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        # over QQ, a = A / da and b = B / db with c^k A = Q B + R give
        # q = Q db / (c^k da) and r = R / (c^k da)
        F, b = self.field, other._num
        q, r = _poly_divmod(F.char, self._num, b)
        s = 1 if F.char else self._den * b[-1] ** len(q)
        return (Polynomial._of_ints(F, [x * other._den for x in q], s),
                Polynomial._of_ints(F, r, s))

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def monic(self) -> "Polynomial":
        if not self._num or self._num[-1] == self._den:
            return self
        return Polynomial._of_ints(self.field, self._num, self._num[-1])

    def derivative(self) -> "Polynomial":
        return Polynomial._of_ints(self.field, [i * c for i, c in enumerate(self._num)][1:],
                                   self._den)

    def eval_at(self, x):
        n, d = _pair(self.field, x)
        acc = 0  # sum_i c_i n^i d^(deg - i), by Horner's rule
        for i, c in enumerate(reversed(self._num)):
            acc = acc * n + c * d ** i
        return self.field._value(acc, self._den * d ** max(self.deg, 0))

    def reversed_poly(self, n: int | None = None) -> "Polynomial":
        """T^n * p(1/T): coefficients reversed into degree-n window.
        Defaults to n = deg; requires n >= deg."""
        if self.is_zero():
            return self
        if n is None:
            n = self.deg
        if n < self.deg:
            raise FieldMismatch("reversal window smaller than the degree")
        return Polynomial._of_ints(self.field, (0,) * (n - self.deg) + self._num[::-1],
                                   self._den)

    def shifted(self, k: int) -> "Polynomial":
        """Multiply by T^k."""
        if self.is_zero():
            return self
        return Polynomial._of_ints(self.field, (0,) * k + self._num, self._den)

    def divides(self, other: "Polynomial") -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.field, self._den, self._num) == (other.field, other._den, other._num)

    def __hash__(self):
        return hash((self.field, self._den, self._num))

    def __repr__(self):
        if self.is_zero():
            return "Poly[0]"
        terms = ", ".join(self.field.format(c) for c in self.coeffs)
        return f"Poly[{terms}]"


def _poly_divmod(p: int, a, b) -> tuple[list, list]:
    """Long division of ascending integer coefficient lists, b nonzero with
    no trailing zero: (q, r) with deg r < deg b and no trailing zero in r.
    Over F_p (p > 0) a = q b + r, in residues.  Over QQ (p == 0) it is
    pseudo-division, c^len(q) a = q b + r with c the leading coefficient
    of b, so every step stays in the integers."""
    c, m = b[-1], len(b) - 1
    inv = pow(c, -1, p) if p else None
    q = [0] * max(0, len(a) - m)
    r = list(a)
    for i in reversed(range(len(q))):
        t = r.pop()  # c t - t c, or t - (t / c) c mod p, is zero
        if p:
            t = t * inv % p
        else:
            r = [c * x for x in r]
            q = [c * x for x in q]
        q[i] = t
        for j in range(m):
            r[i + j] -= t * b[j]
    if p:
        r = [x % p for x in r]
    while r and not r[-1]:
        r.pop()
    return q, r


def _poly_gcd(p: int, a, b) -> list:
    """Euclid's algorithm on ascending integer coefficient lists with no
    trailing zero: the gcd, monic in residues over F_p, and over QQ with
    integer coefficients of gcd 1 and a positive leading one (each
    remainder is divided by the gcd of its coefficients).  gcd(0, 0) is
    the empty list."""
    while b:
        r = _poly_divmod(p, a, b)[1]
        if r and not p:
            g = gcd(*r)
            r = [x // g for x in r]
        a, b = b, r
    if not a:
        return []
    if p:
        inv = pow(a[-1], -1, p)
        return [x * inv % p for x in a]
    g = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return [x // g for x in a]


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by Euclid's algorithm on the integer coefficients
    (:func:`_poly_gcd`); gcd(0, 0) = 0."""
    a._check_field(b)
    g = _poly_gcd(a.field.char, a._num, b._num)
    return Polynomial._of_ints(a.field, g, g[-1] if g else 1)


def poly_gcd_lcm(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Monic gcd and monic lcm.  gcd(0, 0) = 0; lcm(a, 0) = 0 for a != 0;
    lcm(0, 0) raises BothZero."""
    g = poly_gcd(a, b)
    if a.is_zero() and b.is_zero():
        raise BothZero("lcm of two zero polynomials is undefined")
    if a.is_zero() or b.is_zero():
        return g, Polynomial.zero(a.field)
    lcm = ((a * b) // g).monic()
    return g, lcm
