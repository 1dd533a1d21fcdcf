"""Words, cyclic words, and linear presentations of their evaluations.

An interval evaluation assigns a scalar to every word over the alphabet; a
circular evaluation assigns a scalar to every cyclic word (rotation class).
Both are presented finitely:

- :class:`LinearRepresentation` gives interval values as
  ``init * letters[w1] * ... * letters[wn] * final`` (weighted-automaton
  style, one matrix per letter); the minimal state space that
  ``universal.minimize`` builds is one;
- :class:`CircularRepresentation` gives circle values as
  ``trace(weight * letters[w1] * ... * letters[wn])``, with the weight
  commuting with every letter of a larger alphabet so the value only
  depends on the rotation class;
- :class:`RationalFunction1` covers the one-letter case by a rational
  generating function P/Q with Q(0) != 0, the n-th Taylor coefficient being
  the value on the word with n letters.

Both representation kinds share one base that holds and checks the
letter matrices and gives ``act``.  Words are plain tuples of letter
indices; cyclic words are stored in a canonical minimal rotation so equal
rotation classes compare equal.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import AlphabetMismatch, FieldMismatch, PoleAtZero, SchemaError
from .exactla import Field, Matrix, Polynomial, _poly_divmod, _poly_gcd, _wrap

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


class _Representation:
    """A dimension and one square matrix per alphabet letter, over one
    field, immutable; ``act(w)`` is the product of the letters along w."""

    __slots__ = ("field", "num_letters", "dim", "letters")

    def __init__(self, field: Field, num_letters: int, dim: int, letters):
        letters = tuple(letters)
        if len(letters) != num_letters:
            raise FieldMismatch("one matrix per alphabet letter is required")
        for m in letters:
            if m.rows != dim or m.cols != dim:
                raise FieldMismatch(f"letter matrices must be {dim}x{dim}")
            if m.field != field:
                raise FieldMismatch("letter matrix over the wrong field")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num_letters", num_letters)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def act(self, word) -> Matrix:
        return _word_action(self.field, self.dim, self.letters, word)


class LinearRepresentation(_Representation):
    """Finite presentation of an interval evaluation:
    value(w) = init * letters[w1] * ... * letters[wn] * final.

    It owns its minimal state space: ``universal.minimize`` builds it on
    the first call and holds it in the private slot ``_minimal``."""

    __slots__ = ("init", "final", "_minimal")

    def __init__(self, field: Field, num_letters: int, dim: int, init: Matrix,
                 letters, final: Matrix):
        super().__init__(field, num_letters, dim, letters)
        if init.rows != 1 or init.cols != dim:
            raise FieldMismatch(f"init must be 1x{dim}")
        if final.rows != dim or final.cols != 1:
            raise FieldMismatch(f"final must be {dim}x1")
        if init.field != field or final.field != field:
            raise FieldMismatch("boundary vectors over the wrong field")
        object.__setattr__(self, "init", init)
        object.__setattr__(self, "final", final)

    def value(self, word):
        w = _check_word(self.num_letters, word)
        row = self.init
        for a in w:
            row = row * self.letters[a]
        return (row * self.final)[0, 0]


class CircularRepresentation(_Representation):
    """Finite presentation of a circular evaluation:
    value(w) = trace(weight * letters[w1] * ... * letters[wn]).

    For two or more letters the weight must commute with every letter
    matrix so the value is rotation-invariant; this is validated at
    construction.  With at most one letter every rotation of a word is the
    word itself, so any weight will do.
    """

    __slots__ = ("weight",)

    def __init__(self, field: Field, num_letters: int, dim: int, letters,
                 weight: Matrix):
        super().__init__(field, num_letters, dim, letters)
        if weight.rows != dim or weight.cols != dim:
            raise FieldMismatch(f"weight must be {dim}x{dim}")
        if weight.field != field:
            raise FieldMismatch("weight matrix over the wrong field")
        if num_letters >= 2:
            for i, m in enumerate(self.letters):
                if weight * m != m * weight:
                    raise FieldMismatch(
                        f"weight does not commute with letter {i}; circle "
                        "values would depend on the rotation"
                    )
        object.__setattr__(self, "weight", weight)

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


def _lowest_terms(p: int, num: list, den: list) -> tuple[tuple, tuple]:
    """num / den in lowest terms, from ascending integer coefficient lists
    over one scale (residues over F_p, p > 0; p == 0 for QQ).  Over F_p
    the residues with den[0] = 1; over QQ coprime integer coefficients
    with no common factor and den[0] > 0.  Either way equal functions give
    equal pairs, and the zero function is ((), (1,)).  A denominator that
    vanishes at 0 raises PoleAtZero."""
    for a in (num, den):
        while a and not a[-1]:
            a.pop()
    if not den or not den[0]:
        raise PoleAtZero(
            "denominator vanishes at 0; no power-series expansion exists"
        )
    if not num:
        return (), (1,)
    g = _poly_gcd(p, num, den)
    if len(g) > 1:
        num, den = [_poly_divmod(p, a, g)[0] for a in (num, den)]
        if not p:
            # pseudo-division gave c^len(q) (a / g), c the leading coefficient of g
            num, den = [[x // g[-1] ** len(q) for x in q] for q in (num, den)]
    if p:
        inv = pow(den[0], -1, p)
        return tuple(x * inv % p for x in num), tuple(x * inv % p for x in den)
    c = gcd(*num, *den) if den[0] > 0 else -gcd(*num, *den)
    return tuple(x // c for x in num), tuple(x // c for x in den)


class RationalFunction1:
    """A one-variable rational function P/Q with Q(0) != 0, stored reduced
    (gcd(P, Q) = 1) with Q normalized to constant term 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: Field, num: Polynomial, den: Polynomial):
        if num.field != field or den.field != field:
            raise FieldMismatch("rational function parts over the wrong field")
        self._store(field, *_lowest_terms(field.char, [x * den._den for x in num._num],
                                          [x * num._den for x in den._num]))

    @classmethod
    def _of_lowest_terms(cls, field: Field, num, den) -> "RationalFunction1":
        """The function of a pair that :func:`_lowest_terms` gives."""
        z = object.__new__(cls)
        z._store(field, num, den)
        return z

    def _store(self, field, num, den):
        # dividing by den[0] makes the constant term of Q one (over F_p it
        # already is)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", Polynomial._of_ints(field, num, den[0]))
        object.__setattr__(self, "den", Polynomial._of_ints(field, den, den[0]))

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction1 is immutable")

    def __delattr__(self, name):
        raise AttributeError("RationalFunction1 is immutable")

    @staticmethod
    def from_lists(field: Field, num, den, path: str = "rational1") -> "RationalFunction1":
        """The RationalFunction1 P/Q, in lowest terms, of JSON arrays of the
        ascending coefficients of P and Q; a bad array is refused at
        ``path.num`` or ``path.den``."""
        n, dn = _read_coefficients(field, num, f"{path}.num")
        d, dd = _read_coefficients(field, den, f"{path}.den")
        return RationalFunction1._of_lowest_terms(
            field, *_lowest_terms(field.char, [x * dd for x in n], [x * dn for x in d]))

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
        return list(_wrap(self.field, *self._taylor_ints(n)))

    def _taylor_ints(self, n: int) -> tuple[list, int]:
        """The coefficients of :meth:`taylor` as ints C_k over dn dd^n, for
        num = N / dn and den = D / dd (so D[0] = dd): C_k = N_k dd^n -
        (sum_{i>=1} D_i C_{k-i}) / dd, exact as dd^(n-j) divides C_j."""
        p, N, D, dd = self.field.char, self.num._num, self.den._num, self.den._den
        top = dd ** max(n, 0)
        out: list = []
        for k in range(n + 1):
            c = (N[k] * top if k < len(N) else 0) - sum(
                D[i] * out[k - i] for i in range(1, min(k, len(D) - 1) + 1)) // dd
            out.append(c % p if p else c)
        return out, self.num._den * top


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
    g = g_of(z)
    d, dg = g.deg, g._den  # g is monic: the shift over dg, then -g_0 .. -g_{d-1}
    companion = Matrix._of_ints(F, [dg * (j == i + 1) for i in range(d - 1) for j in range(d)]
                                + [-x for x in g._num[:d]], dg, d, d)
    init = Matrix._raw(F, (1,) + (0,) * (d - 1), 1, 1, d)
    final = Matrix._of_ints(F, *z._taylor_ints(d - 1), d, 1)
    return LinearRepresentation(F, 1, d, init, (companion,), final)


def g_of(z: RationalFunction1) -> Polynomial:
    """Monic characteristic polynomial of the letter acting on the minimal
    state space of z: T^{max(0, n-m+1)} times the degree-m reciprocal of
    the denominator, with n = deg num and m = deg den (monic as den(0) = 1).
    The letter of :func:`rational_to_rep` is its companion matrix."""
    n, m = z.num.deg, z.den.deg
    return z.den.reversed_poly(m).shifted(max(0, n - m + 1))


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


# ``Field._read`` gives canonical ints, so ``Matrix._raw`` takes them as
# they are.


def _read_letters(field: Field, alphabet, doc, dim: int, path: str) -> tuple:
    """One dim x dim matrix per letter of the alphabet, in its order."""
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object keyed by letter names")
    unknown = sorted(set(doc) - set(alphabet))
    if unknown:
        raise SchemaError(f"{path}.{unknown[0]}", "letter not in the alphabet")
    out = []
    for name in alphabet:
        if name not in doc:
            raise SchemaError(f"{path}.{name}", "missing letter matrix")
        out.append(Matrix._raw(field, *field._read(doc[name], (dim, dim), f"{path}.{name}"),
                               dim, dim))
    return tuple(out)


def _read_dim(doc, path: str) -> int:
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise SchemaError(f"{path}.dim", "expected a nonnegative integer")
    return dim


def _read_linrep(field: Field, alphabet, doc, path: str) -> LinearRepresentation:
    """The LinearRepresentation of a linrep part."""
    dim = _read_dim(doc, path)
    init = field._read(doc.get("init"), (dim,), f"{path}.init")
    final = field._read(doc.get("final"), (dim,), f"{path}.final")
    letters = _read_letters(field, alphabet, doc.get("letters", {}), dim, f"{path}.letters")
    return LinearRepresentation(
        field, len(letters), dim, Matrix._raw(field, *init, 1, dim), letters,
        Matrix._raw(field, *final, dim, 1))


def _read_circrep(field: Field, alphabet, doc, path: str) -> CircularRepresentation:
    """The CircularRepresentation of a tracerep part; a weight that does not
    commute with the letters is refused at ``path.weight``."""
    dim = _read_dim(doc, path)
    weight = field._read(doc.get("weight"), (dim, dim), f"{path}.weight")
    letters = _read_letters(field, alphabet, doc.get("letters", {}), dim, f"{path}.letters")
    try:
        return CircularRepresentation(
            field, len(letters), dim, letters, Matrix._raw(field, *weight, dim, dim))
    except FieldMismatch as e:
        raise SchemaError(f"{path}.weight", str(e)) from None


def _read_coefficients(field: Field, doc, path: str) -> tuple[tuple, int]:
    if not isinstance(doc, list):
        raise SchemaError(path, "expected an array of ascending coefficients")
    return field._read(doc, (len(doc),), path)


def rational1_from_json(field: Field, doc, path: str) -> RationalFunction1:
    for key in ("num", "den"):
        if doc.get(key) is None:
            raise SchemaError(f"{path}.{key}", "missing coefficient list")
    return RationalFunction1.from_lists(field, doc["num"], doc["den"], path)
