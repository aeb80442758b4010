"""Polynomials as canonical coefficient matrices over the rationals.

A univariate polynomial is a dense coefficient vector indexed by the power
of x; a bivariate one is a dense coefficient matrix with entry (i, j)
multiplying x1**i * x2**j.  Coefficients are ``fractions.Fraction`` values,
so evaluation (``eval``, ``grid_values``) is exact.  Both are canonicalized
on construction (trailing zero coefficients trimmed, the zero polynomial
kept as a single zero entry) so that the stored length always matches the
degree.  They hold data only: every basis change, search and certificate
runs on the integer tables of ``univariate``, ``raising`` and
``certificates``.

``rat`` reads a rational and ``rat_text`` writes one as free text, for every
message and diagnostic record, including values past the interpreter's
4300-digit limit for str(); the document formats keep their own rule.

``Record`` is the base of the package's frozen value records, from these
polynomials up to certificate documents.  Its methods are written once here
rather than generated for each class at import, which kept a command's
start-up short: generating them, and importing the module that does, cost
more than most commands' exact arithmetic.
"""

from __future__ import annotations

from decimal import Decimal  # already loaded by fractions, so free at startup
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

RationalLike = Union[Fraction, int, str]


class Record:
    """A frozen value record.  A subclass names its fields once, as
    ``__slots__ = _fields = (...)``, and may give a ``__post_init__`` hook
    that checks or coerces them (with ``object.__setattr__``).  Records of
    one class are equal when their field values are, and hash by those
    values; a record is never equal to another class's.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        """One value for each field, in ``_fields`` order."""
        names = self._fields
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(values)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _rebuild, (type(self), self._values())


def _rebuild(cls: type, values: tuple) -> Record:
    """The record of class cls with these field values, as pickled; its
    ``__init__`` is not run again."""
    record = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(record, name, value)
    return record


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, a string such as ``"3/4"``, or a Fraction to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def rat_text(value) -> str:
    """The text of a value, the reverse of ``rat``: ``str(value)``, or for an
    int or Fraction whose parts are past the interpreter's digit limit for
    str(), the same digits through ``decimal``.  Every message and record
    that shows a rational writes it with this."""
    try:
        return str(value)
    except ValueError:
        num, den = (format(Decimal(v), "f") for v in (value.numerator, value.denominator))
        return num if den == "1" else f"{num}/{den}"


def binomials(m: int) -> Iterator[int]:
    """C(m, t) for t in 0..m, by C(m, t+1) = C(m, t) (m-t) / (t+1).

    One multiplication and one exact division per entry, where
    ``math.comb`` computes each coefficient on its own.
    """
    b = 1
    for t in range(m + 1):
        yield b
        b = b * (m - t) // (t + 1)


class UPoly(Record):
    """Dense univariate polynomial; ``coeffs[i]`` multiplies x**i."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike]):
        cs = [rat(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, x: RationalLike) -> Fraction:
        """Exact value at x (Horner scheme)."""
        xv = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * xv + c
        return acc


class BPoly(Record):
    """Dense bivariate polynomial; ``coeffs[i][j]`` multiplies x1**i * x2**j."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[Iterable[RationalLike]]):
        rows = [[rat(c) for c in row] for row in coeffs] or [[]]
        width = max(1, *map(len, rows))
        for r in rows:
            r.extend([Fraction(0)] * (width - len(r)))
        while len(rows) > 1 and all(c == 0 for c in rows[-1]):
            rows.pop()
        ncols = len(rows[0])
        while ncols > 1 and all(r[ncols - 1] == 0 for r in rows):
            ncols -= 1
        object.__setattr__(
            self, "coeffs", tuple(tuple(r[:ncols]) for r in rows)
        )

    @property
    def n1(self) -> int:
        return len(self.coeffs) - 1

    @property
    def n2(self) -> int:
        return len(self.coeffs[0]) - 1

    def eval(self, x1: RationalLike, x2: RationalLike) -> Fraction:
        """Exact value at (x1, x2); Horner in x1 over row values at x2."""
        x1v, x2v = rat(x1), rat(x2)
        acc = Fraction(0)
        for row in reversed(self.coeffs):
            row_val = Fraction(0)
            for c in reversed(row):
                row_val = row_val * x2v + c
            acc = acc * x1v + row_val
        return acc


def grid_values(p: BPoly, points1: Sequence[Fraction], points2: Sequence[Fraction]):
    """Evaluate p on the cartesian grid points1 x points2.

    Yields ((x1, x2), value).  Each x1 collapses the matrix to a univariate
    polynomial in x2 once, which is much cheaper than independent evaluations.
    """
    cols = [UPoly(col) for col in zip(*p.coeffs)]
    for x1 in points1:
        slice_coeffs = UPoly([col.eval(x1) for col in cols])
        for x2 in points2:
            yield (x1, x2), slice_coeffs.eval(x2)
