"""Canonical polynomial containers, exact evaluation, rationals and records."""

import ast
import importlib
import pickle
import pkgutil
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import berncert
from berncert import (
    BernsteinForm1D,
    BernsteinForm2D,
    BPoly,
    DegreeError,
    Method,
    MinEnclosure,
    NestedDegreeReport,
    PositivityCertificate,
    UPoly,
    bern_coeffs,
    certify_nested,
    certify_positive_1d,
    certify_raise,
    min_enclosure,
    range_enclosure_1d,
    rat,
    verify,
)
from berncert.documents import CertificateDocument, ParseError, PolynomialDocument
from berncert.polys import Record, rat_text

from corpus import random_fraction


class TestRational:
    def test_canonical_form(self):
        assert rat("2/4") == rat("1/2") == Fraction(1, 2)
        assert UPoly([rat("2/4")]) == UPoly([Fraction(1, 2)])

    def test_string_and_int(self):
        assert rat(3) == Fraction(3)
        assert rat("-7/3") == Fraction(-7, 3)

    @pytest.mark.parametrize(
        "value", [Fraction(-7, 3), Fraction(5), 0, "1/2", 10**4299, Fraction(-1, 10**4299)]
    )
    def test_text_is_str_within_the_digit_limit(self, value):
        assert rat_text(value) == str(value)

    def test_text_past_the_digit_limit(self):
        # The same digits str() gives with the limit lifted.
        n, d = -(3**9100), 2**14400  # 4342 and 4335 digits
        assert rat_text(n) == "-" + format(Decimal(3**9100), "f")
        assert rat_text(Fraction(n, d)) == f"{rat_text(n)}/{rat_text(d)}"
        assert rat_text(Fraction(n, 3)) == rat_text(n // 3)
        assert Fraction(int(Decimal(rat_text(n))), int(Decimal(rat_text(d)))) == Fraction(n, d)


def test_only_polys_imports_decimal():
    # Rationals become text in one place: no other module of the package
    # imports decimal, under any spelling of the import.
    importers = set()
    for path in Path(berncert.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {node.module or ""}
            else:
                continue
            if "decimal" in {name.partition(".")[0] for name in names}:
                importers.add(path.stem)
    assert importers == {"polys"}


class TestUPoly:
    def test_eval_examples(self):
        assert UPoly([1, 2]).eval(Fraction(1, 2)) == 2
        assert UPoly([0, 0, 1]).eval(Fraction(3, 4)) == Fraction(9, 16)
        assert UPoly([0]).eval(7) == 0

    def test_zero_polynomial_representation(self):
        z = UPoly([0, 0, 0])
        assert z.coeffs == (Fraction(0),)
        assert z.degree == 0

    def test_trailing_zero_trim(self):
        assert UPoly([1, 2, 0, 0]).coeffs == (1, 2)

    def test_no_coefficients_is_zero(self):
        assert UPoly([]).coeffs == (Fraction(0),)
        assert UPoly([]) == UPoly([0])


class TestBPoly:
    def test_eval_examples(self):
        assert BPoly([[0, 0], [0, 1]]).eval(Fraction(1, 2), Fraction(1, 2)) == Fraction(1, 4)
        assert BPoly([[1, 0, 1], [0], [1]]).eval(0, 0) == 1
        w = BPoly([[Fraction(1, 8), 0, 1], [0, -2, 0], [1, 0, 0]])
        assert w.eval(1, 0) == Fraction(9, 8)

    def test_canonical_trim(self):
        p = BPoly([[1, 0, 0], [0, 0, 0]])
        assert p.coeffs == ((Fraction(1),),)
        assert p.n1 == 0 and p.n2 == 0

    def test_empty_first_row_is_padded(self):
        # A short first row is padded like any other, even an empty one.
        assert BPoly([[], [1]]).coeffs == ((0,), (1,))
        assert BPoly([[], [0, 2]]) == BPoly([[0, 0], [0, 2]])
        assert BPoly([[]]).coeffs == ((Fraction(0),),)
        assert BPoly([]).coeffs == ((Fraction(0),),)


def test_grid_values_match_eval():
    from berncert.polys import grid_values

    rng = random.Random(7)
    p = BPoly([[random_fraction(rng) for _ in range(3)] for _ in range(3)])
    pts = [Fraction(k, 4) for k in range(5)]
    for (x1, x2), value in grid_values(p, pts, pts):
        assert value == p.eval(x1, x2)


class TestRecord:
    """The frozen value-record base of every record class."""

    class Pair(Record):
        __slots__ = _fields = ("a", "b")

    class OtherPair(Record):
        __slots__ = _fields = ("a", "b")

    def test_fields_by_position_only(self):
        pair = self.Pair(1, 2)
        assert (pair.a, pair.b) == (1, 2)
        report = (4, Fraction(1), Fraction(2), None, None, None)
        for cls, values in [(self.Pair, (1, 2)), (NestedDegreeReport, report)]:
            assert cls(*values)._values() == values
            named = dict(zip(cls._fields, values))
            for args, kwargs in [
                (values[:-1], {}),  # too few
                (values + (0,), {}),  # too many
                (values[:-1], {cls._fields[-1]: values[-1]}),
                ((), named),
                (values, {"c": 0}),
            ]:
                with pytest.raises(TypeError):
                    cls(*args, **kwargs)
        with pytest.raises(TypeError):
            NestedDegreeReport(4, 1, 2)

    def test_equality_only_within_one_class(self):
        assert self.Pair(1, 2) != self.Pair(1, 3)
        assert self.Pair(1, 2) != self.OtherPair(1, 2)
        assert self.Pair(1, 2) != (1, 2)
        assert UPoly([1]) != BPoly([[1]])
        assert self.Pair(1, 2).__eq__((1, 2)) is NotImplemented

    def test_equal_values_hash_equal(self):
        assert hash(self.Pair(Fraction(1, 2), (3,))) == hash(self.Pair(Fraction(2, 4), (3,)))
        assert hash(UPoly([1, 2])) == hash(UPoly([1, 2, 0]))
        assert len({MinEnclosure(2, 2, Fraction(1), Fraction(0)) for _ in range(3)}) == 1

    def test_fields_cannot_be_assigned_or_deleted(self):
        pair = self.Pair(1, 2)
        with pytest.raises(AttributeError):
            pair.a = 3
        with pytest.raises(AttributeError):
            del pair.b
        with pytest.raises(AttributeError):
            pair.c = 3
        with pytest.raises(AttributeError):
            UPoly([1]).coeffs = (Fraction(2),)
        assert pair == self.Pair(1, 2)

    def test_repr(self):
        assert repr(self.Pair(Fraction(1, 2), "x")) == (
            "TestRecord.Pair(a=Fraction(1, 2), b='x')"
        )
        assert repr(MinEnclosure(2, 4, Fraction(1), Fraction(0))) == (
            "MinEnclosure(q1=2, q2=4, c_min=Fraction(1, 1), bound=Fraction(0, 1))"
        )

    def test_pickle_round_trip(self):
        p = BPoly([[1, 1], [1, 0]])
        nested_cert = certify_nested(p)
        raise_cert = certify_raise(p)
        univariate_cert = certify_positive_1d(UPoly([1, -1, 1]))
        records = [
            p,
            UPoly([1, 2]),
            univariate_cert,
            univariate_cert.form,
            range_enclosure_1d(UPoly([1, -1, 1]), Fraction(1, 8)),
            bern_coeffs(p, 2, 2),
            min_enclosure(p, 2, 2),
            raise_cert.report,
            raise_cert,
            nested_cert,
            nested_cert.report,
            PositivityCertificate(0, 1, [[1, "1/2"]], Method.RAISE),
            verify(p, raise_cert),
            PolynomialDocument(2, p.coeffs),
            CertificateDocument.from_certificate(nested_cert),
        ]
        assert nested_cert.report.per_i_inf_lower is not None
        assert {type(record) for record in records} == set(_record_classes())
        for record in records:
            assert pickle.loads(pickle.dumps(record)) == record

    def test_fields_named_once(self):
        """Each record class names its fields once, as
        ``__slots__ = _fields = (...)``."""
        classes = _record_classes()
        assert NestedDegreeReport in classes
        for cls in classes:
            assert cls.__slots__ == cls._fields, cls.__name__
            assert isinstance(cls._fields, tuple) and cls._fields, cls.__name__


def _record_classes() -> list[type]:
    """Every subclass of ``Record`` defined in the berncert package, with
    each of its modules imported."""
    for info in pkgutil.iter_modules(berncert.__path__):
        importlib.import_module(f"berncert.{info.name}")
    found, todo = [], [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("berncert."):
                found.append(cls)
    return found


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: BernsteinForm1D(-1, ()), DegreeError),
        (lambda: BernsteinForm1D(2, (1, 2)), ValueError),
        (lambda: BernsteinForm2D(1, 1, ((1, 2),)), ValueError),
        (lambda: BernsteinForm2D(0, 1, ((1,),)), ValueError),
        (lambda: PolynomialDocument(3, ((Fraction(1),),)), ParseError),
        (lambda: PolynomialDocument(1, ((Fraction(1),), (Fraction(2),))), ParseError),
    ],
)
def test_validating_records_raise(build, error):
    with pytest.raises(error):
        build()


def test_validating_records_coerce():
    assert BernsteinForm1D(1, (1, "1/2")).coeffs == (Fraction(1), Fraction(1, 2))
    assert BernsteinForm2D(0, 1, [["3/4", 2]]).coeffs == ((Fraction(3, 4), Fraction(2)),)

