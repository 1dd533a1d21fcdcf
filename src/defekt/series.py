"""Words, cyclic words, and linear presentations of their evaluations.

An interval evaluation assigns a scalar to every word over the alphabet; a
circular evaluation assigns a scalar to every cyclic word (rotation class).
Both are presented finitely:

- :class:`LinearRepresentation` gives interval values as
  ``init * letters[w1] * ... * letters[wn] * final`` (weighted-automaton
  style, one matrix per letter);
- :class:`CircularRepresentation` gives circle values as
  ``trace(weight * letters[w1] * ... * letters[wn])``, with the weight
  commuting with every letter of a larger alphabet so the value only
  depends on the rotation class;
- :class:`RationalFunction1` covers the one-letter case by a rational
  generating function P/Q with Q(0) != 0, the n-th Taylor coefficient being
  the value on the word with n letters.

Words are plain tuples of letter indices; cyclic words are stored in a
canonical minimal rotation so equal rotation classes compare equal.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import AlphabetMismatch, FieldMismatch, PoleAtZero, SchemaError
from .exactla import Field, Matrix, Polynomial, poly_gcd

__all__ = [
    "CircularRepresentation",
    "CyclicWord",
    "LinearRepresentation",
    "RationalFunction1",
    "Word",
    "canonical_rotation",
    "eval_cyclic",
    "eval_interval",
    "rational_to_rep",
    "taylor",
    "word_from_json",
    "word_to_str",
]

Word = tuple  # tuple[int, ...]: letter indices into the theory's alphabet


def canonical_rotation(letters) -> "Word":
    """The lexicographically least rotation of a word (letters compared by
    alphabet index).  Deterministic canonical form for cyclic words."""
    w = tuple(letters)
    if not w:
        return w
    best = w
    for i in range(1, len(w)):
        rot = w[i:] + w[:i]
        if rot < best:
            best = rot
    return best


@dataclass(frozen=True)
class CyclicWord:
    """A rotation class of words, stored as its canonical minimal rotation."""

    letters: Word

    def __init__(self, letters):
        object.__setattr__(self, "letters", canonical_rotation(letters))

    def __len__(self):
        return len(self.letters)


def _check_word(num_letters: int, word) -> Word:
    w = tuple(word.letters) if isinstance(word, CyclicWord) else tuple(word)
    for a in w:
        if not isinstance(a, int) or a < 0 or a >= num_letters:
            raise AlphabetMismatch(
                f"letter index {a!r} outside alphabet of size {num_letters}"
            )
    return w


def _word_action(field: Field, dim: int, letters: tuple, word) -> Matrix:
    """The product of the letter matrices along a word, left to right, from
    the dim x dim identity; the word is checked against the letters."""
    m = Matrix.identity(field, dim)
    for a in _check_word(len(letters), word):
        m = m * letters[a]
    return m


class LinearRepresentation:
    """Finite presentation of an interval evaluation:
    value(w) = init * letters[w1] * ... * letters[wn] * final."""

    __slots__ = ("field", "num_letters", "dim", "init", "letters", "final")

    def __init__(self, field: Field, num_letters: int, dim: int, init: Matrix,
                 letters, final: Matrix):
        letters = tuple(letters)
        if len(letters) != num_letters:
            raise FieldMismatch("one matrix per alphabet letter is required")
        if init.rows != 1 or init.cols != dim:
            raise FieldMismatch(f"init must be 1x{dim}")
        if final.rows != dim or final.cols != 1:
            raise FieldMismatch(f"final must be {dim}x1")
        for m in letters:
            if m.rows != dim or m.cols != dim:
                raise FieldMismatch(f"letter matrices must be {dim}x{dim}")
            if m.field != field:
                raise FieldMismatch("letter matrix over the wrong field")
        if init.field != field or final.field != field:
            raise FieldMismatch("boundary vectors over the wrong field")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num_letters", num_letters)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "init", init)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "final", final)

    def __setattr__(self, name, value):
        raise AttributeError("LinearRepresentation is immutable")

    def act(self, word) -> Matrix:
        return _word_action(self.field, self.dim, self.letters, word)

    def value(self, word):
        w = _check_word(self.num_letters, word)
        row = self.init
        for a in w:
            row = row * self.letters[a]
        return (row * self.final)[0, 0]


class CircularRepresentation:
    """Finite presentation of a circular evaluation:
    value(w) = trace(weight * letters[w1] * ... * letters[wn]).

    For two or more letters the weight must commute with every letter
    matrix so the value is rotation-invariant; this is validated at
    construction.  With at most one letter every rotation of a word is the
    word itself, so any weight will do.
    """

    __slots__ = ("field", "num_letters", "dim", "letters", "weight")

    def __init__(self, field: Field, num_letters: int, dim: int, letters,
                 weight: Matrix):
        letters = tuple(letters)
        if len(letters) != num_letters:
            raise FieldMismatch("one matrix per alphabet letter is required")
        if weight.rows != dim or weight.cols != dim:
            raise FieldMismatch(f"weight must be {dim}x{dim}")
        if weight.field != field:
            raise FieldMismatch("weight matrix over the wrong field")
        for m in letters:
            if m.rows != dim or m.cols != dim:
                raise FieldMismatch(f"letter matrices must be {dim}x{dim}")
            if m.field != field:
                raise FieldMismatch("letter matrix over the wrong field")
        if num_letters >= 2:
            for i, m in enumerate(letters):
                if weight * m != m * weight:
                    raise FieldMismatch(
                        f"weight does not commute with letter {i}; circle "
                        "values would depend on the rotation"
                    )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num_letters", num_letters)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "weight", weight)

    def __setattr__(self, name, value):
        raise AttributeError("CircularRepresentation is immutable")

    def act(self, word) -> Matrix:
        return _word_action(self.field, self.dim, self.letters, word)

    def value(self, word):
        return (self.weight * self.act(word)).trace()

    @staticmethod
    def from_rational(z: "RationalFunction1", num_letters: int) -> "CircularRepresentation":
        """Circle data for a one-letter (or empty) alphabet from a rational
        generating function: any presentation with the right word values
        works, so reuse the interval-style realization r and take
        weight = final * init, letter = r's letter."""
        if num_letters > 1:
            raise AlphabetMismatch(
                "rational circle data only makes sense for at most one letter"
            )
        if num_letters == 0:
            if not z.num.is_zero() and (z.num.deg > 0 or z.den.deg > 0):
                raise AlphabetMismatch(
                    "an empty alphabet admits only constant circle data"
                )
        r = rational_to_rep(z)
        weight = r.final * r.init
        return CircularRepresentation(z.field, num_letters, r.dim,
                                      r.letters[:num_letters], weight)


def eval_interval(rep: LinearRepresentation, word):
    """Value of an interval carrying the given word."""
    return rep.value(word)


def eval_cyclic(rep: CircularRepresentation, word):
    """Value of a circle carrying the given cyclic word (any rotation may be
    passed; the result only depends on the rotation class)."""
    return rep.value(word)


class RationalFunction1:
    """A one-variable rational function P/Q with Q(0) != 0, stored reduced
    (gcd(P, Q) = 1) with Q normalized to constant term 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: Field, num: Polynomial, den: Polynomial):
        if num.field != field or den.field != field:
            raise FieldMismatch("rational function parts over the wrong field")
        if den.is_zero() or den.coeff(0) == field.zero:
            raise PoleAtZero(
                "denominator vanishes at 0; no power-series expansion exists"
            )
        if num.is_zero():
            den = Polynomial.one(field)
        else:
            # g is monic, so a constant g is 1; the scalar the plain Euclid
            # remainder would carry is absorbed by the normalization below
            g = poly_gcd(num, den)
            if g.deg > 0:
                num = num // g
                den = den // g
        c0 = den.coeff(0)
        if c0 != field.one:
            inv = field.one / c0
            num = num.scale(inv)
            den = den.scale(inv)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction1 is immutable")

    @staticmethod
    def from_lists(field: Field, num, den, path: str = "rational1") -> "RationalFunction1":
        return RationalFunction1(
            field,
            Polynomial.from_list(field, num, f"{path}.num"),
            Polynomial.from_list(field, den, f"{path}.den"),
        )

    @staticmethod
    def constant(field: Field, c) -> "RationalFunction1":
        return RationalFunction1(
            field, Polynomial.constant(field, c), Polynomial.one(field)
        )

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RationalFunction1") -> "RationalFunction1":
        if self.field != other.field:
            raise FieldMismatch("rational functions over different fields")
        return RationalFunction1(
            self.field,
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        )

    def __sub__(self, other: "RationalFunction1") -> "RationalFunction1":
        return self + (-other)

    def __neg__(self) -> "RationalFunction1":
        return RationalFunction1(self.field, -self.num, self.den)

    def __mul__(self, other: "RationalFunction1") -> "RationalFunction1":
        if self.field != other.field:
            raise FieldMismatch("rational functions over different fields")
        return RationalFunction1(
            self.field, self.num * other.num, self.den * other.den
        )

    def __eq__(self, other):
        if not isinstance(other, RationalFunction1):
            return NotImplemented
        return (
            self.field == other.field
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    def __repr__(self):
        return f"Rational1[{self.num!r} / {self.den!r}]"

    def taylor(self, n: int) -> list:
        """Power-series coefficients of orders 0 through n (n+1 values), by
        long division against the denominator (whose constant term is 1
        after normalization)."""
        out = []
        q = self.den.coeffs
        for k in range(n + 1):
            s = self.num.coeff(k)
            for i in range(1, min(k, len(q) - 1) + 1):
                s = s - q[i] * out[k - i]
            out.append(s)
        return out


def taylor(z: RationalFunction1, n: int) -> list:
    """Taylor coefficients of z at 0, orders 0 through n."""
    return z.taylor(n)


def rational_to_rep(z: RationalFunction1) -> LinearRepresentation:
    """One-letter interval presentation of a rational generating function.

    The word with n letters gets the n-th Taylor coefficient.  The letter
    matrix is the companion matrix of the minimal shift recurrence that the
    coefficient sequence satisfies from index 0 on, acting on windows of
    consecutive coefficients, so the dimension is
    max(deg num + 1, deg den) and zero for the zero function.
    """
    F = z.field
    if z.is_zero():
        return LinearRepresentation(
            F, 1, 0, Matrix.zeros(F, 1, 0), (Matrix.zeros(F, 0, 0),),
            Matrix.zeros(F, 0, 1),
        )
    n, m = z.num.deg, z.den.deg
    extra = max(0, n - m + 1)
    g = z.den.reversed_poly(m).shifted(extra)  # monic, degree max(n+1, m)
    d = g.deg
    coeffs = z.taylor(d - 1)
    rows = []
    for i in range(d - 1):
        rows.append([F.one if j == i + 1 else F.zero for j in range(d)])
    rows.append([-g.coeff(j) for j in range(d)])
    companion = Matrix(F, rows, cols=d)
    init = Matrix.row_vector(F, [F.one] + [F.zero] * (d - 1))
    final = Matrix.col_vector(F, coeffs)
    return LinearRepresentation(F, 1, d, init, (companion,), final)


# -- JSON ingestion ---------------------------------------------------------


def word_from_json(alphabet, doc, path: str = "word") -> Word:
    """Parse a word: either a string of single-character letter names or an
    array of letter names."""
    index = {name: i for i, name in enumerate(alphabet)}
    if isinstance(doc, str):
        out = []
        for ch in doc:
            if ch not in index:
                raise SchemaError(path, f"unknown letter {ch!r}")
            out.append(index[ch])
        return tuple(out)
    if isinstance(doc, list):
        out = []
        for i, name in enumerate(doc):
            if name not in index:
                raise SchemaError(f"{path}[{i}]", f"unknown letter {name!r}")
            out.append(index[name])
        return tuple(out)
    raise SchemaError(path, "expected a string or an array of letter names")


def word_to_str(alphabet, word) -> str:
    return "".join(alphabet[a] for a in word)


def _letters_from_json(field: Field, alphabet, doc, dim: int, path: str):
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object keyed by letter names")
    unknown = sorted(set(doc) - set(alphabet))
    if unknown:
        raise SchemaError(f"{path}.{unknown[0]}", "letter not in the alphabet")
    mats = []
    for name in alphabet:
        if name not in doc:
            raise SchemaError(f"{path}.{name}", "missing letter matrix")
        mats.append(Matrix.from_lists(field, doc[name], dim, dim, f"{path}.{name}"))
    return tuple(mats)


def linrep_from_json(field: Field, alphabet, doc, path: str = "interval") -> LinearRepresentation:
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise SchemaError(f"{path}.dim", "expected a nonnegative integer")
    init = Matrix.row_vector(field, field.parse_vector(doc.get("init"), dim, f"{path}.init"))
    final = Matrix.col_vector(field, field.parse_vector(doc.get("final"), dim, f"{path}.final"))
    letters = _letters_from_json(field, alphabet, doc.get("letters", {}), dim, f"{path}.letters")
    return LinearRepresentation(field, len(alphabet), dim, init, letters, final)


def circrep_from_json(field: Field, alphabet, doc, path: str = "circular") -> CircularRepresentation:
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise SchemaError(f"{path}.dim", "expected a nonnegative integer")
    weight = Matrix.from_lists(field, doc.get("weight"), dim, dim, f"{path}.weight")
    letters = _letters_from_json(field, alphabet, doc.get("letters", {}), dim, f"{path}.letters")
    try:
        return CircularRepresentation(field, len(alphabet), dim, letters, weight)
    except FieldMismatch as e:
        raise SchemaError(f"{path}.weight", str(e)) from None


def rational1_from_json(field: Field, doc, path: str) -> RationalFunction1:
    num = doc.get("num")
    den = doc.get("den")
    if num is None:
        raise SchemaError(f"{path}.num", "missing coefficient list")
    if den is None:
        raise SchemaError(f"{path}.den", "missing coefficient list")
    return RationalFunction1.from_lists(field, num, den, path)
