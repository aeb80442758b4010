"""Nested bivariate certification: the univariate pipeline applied twice.

For each fixed x2, p(., x2) is a univariate polynomial whose plain Bernstein
coefficients at a sufficiently high shared degree q1 are strictly positive,
and those coefficients A_i(x2) are themselves polynomials in x2.  Certifying
each of them at a shared degree q2 yields the strictly positive matrix C with

    p(x1, x2) = sum_{i,j} C[i][j] x1**i (1-x1)**(q1-i) x2**j (1-x2)**(q2-j).

q1 is driven by a certified positive lower bound on min p over the box and a
certified upper bound on the Goursat coefficient polynomials of the rows; q2
by the same quantities computed exactly for each coefficient polynomial.
That choice of degrees is the whole method: C is the unique plain Bernstein
matrix of p at (q1, q2), made by the forward map of
``certificates.plain_coeffs`` and kept as its integer numerators over its
one denominator.  Its rows are checked by ``certificates.CertificateRows``,
as raise's are, and ``NestedDegreeReport.pairs`` gives its report's keys
and values.

Both stages run on integers over one denominator, the first on p's columns,
the second on that map's x1 pass (the rows A_i(x2)), which ``certify_nested``
also hands to the x2 pass: each takes its Goursat coefficients from one
``univariate._goursat`` call over p (in stage 2 carried to every row by the
x1 pass, which the transform commutes with) and bisects integer control points
(``univariate._range_enclosure``) until a stop rule on the level's integers
holds: gaps of at most lambda cross-multiplied (``univariate._within``) in
stage 1, a lower bound within a factor two of an attained value
(``_q2_stop``) in stage 2.  Stage 2 picks its worst row, the largest
maxB_i / inf_i, by cross-multiplying too.  Only the report's bounds are
Fractions, two per row in stage 2, and all of them are computed here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .certificates import CertificateRows, Method, PositivityCertificate
from .errors import DegreeError, InconclusiveError
from .polys import BPoly, RationalLike, Record, UPoly, rat, rat_text
from .raising import DEFAULT_DOUBLING_CAP, minimum_lower_bound
from .univariate import (
    DEFAULT_REFINEMENT_CAP,
    MAX_GRID_DEGREE,
    _enclosure,
    _goursat,
    _plain_pass,
    _plain_rows,
    _range_enclosure,
    _within,
    powers_reznick_degree,
)


class NestedDegreeReport(Record):
    """Certified quantities behind the degrees of a nested certificate.

    lambda_lower is a positive lower bound on min p over the box; l_upper
    dominates sup over x2 of the largest row Goursat coefficient magnitude.
    The per-row vectors are filled by the second stage: positive lower bounds
    on each coefficient polynomial over [0, 1] and the exact maxima of their
    Goursat coefficient magnitudes.  The first stage's report has None in
    the second stage's three fields.
    """

    __slots__ = _fields = (
        "q1", "lambda_lower", "l_upper", "q2", "per_i_inf_lower", "per_i_maxb_upper"
    )

    def pairs(self) -> tuple[tuple[str, Fraction], ...]:
        """The certificate document's ``report:`` keys and values."""
        return (("lambda_lower", self.lambda_lower), ("l_upper", self.l_upper))


def coefficient_bernstein_polys(p: BPoly, q1: int) -> tuple[UPoly, ...]:
    """The coefficient polynomials A_i(x2) of p at Bernstein degree q1 in x1.

    Row i (0 <= i <= q1) is sum over j <= min(n1, i) of
    C(q1-j, q1-i) * a_j(x2), so that p(x1, x2) equals
    sum_i A_i(x2) * x1**i * (1-x1)**(q1-i) identically: the x1 pass over
    the columns of p, divided by the common denominator.
    """
    rows, den = _coefficient_rows(p, q1)
    return tuple(UPoly([Fraction(v, den) for v in row]) for row in rows)


def _coefficient_rows(p: BPoly, q1: int) -> tuple[list[tuple[int, ...]], int]:
    """The x1 pass as integers: (rows, D) with A_i(x2) equal to
    sum_j rows[i][j] x2**j / D."""
    if q1 < p.n1:
        raise DegreeError(f"degree {q1} is below the x1 degree {p.n1}")
    if q1 > MAX_GRID_DEGREE:
        raise DegreeError(
            f"degree {rat_text(q1)} is past the largest grid degree {MAX_GRID_DEGREE}"
        )
    rows, den = _plain_pass(list(zip(*p.coeffs)), q1)
    return list(rows), den


def nested_q1(
    p: BPoly,
    *,
    lambda_lower: Optional[RationalLike] = None,
    max_doublings: int = DEFAULT_DOUBLING_CAP,
    max_levels: int = DEFAULT_REFINEMENT_CAP,
) -> tuple[int, NestedDegreeReport]:
    """Shared x1 Bernstein degree at which every slice p(., x2) is positive.

    Returns the even degree 2 * (3 n1 + ceil(2 n1**2 L / lam) + 1) where lam
    is a certified positive lower bound on min p over the box and L a
    certified upper bound on sup over x2 in [0, 1] of max_k |B_k(x2)|, the
    Goursat coefficients of the slice p(., x2).  Column j of p transformed
    gives the x2**j coefficients of every B_k, so one ``_goursat`` call gives
    them all as integers; L is the largest max(-lo, hi) of their integer
    range enclosures, refined to gaps of at most lam (compared
    cross-multiplied, on the enclosures' integers).  A given
    ``lambda_lower`` is trusted in place of lam (any positive lower bound
    keeps the degree sufficient); L is always computed.
    """
    if lambda_lower is None:
        lam, _ = minimum_lower_bound(p, max_doublings)
    else:
        lam = rat(lambda_lower)
        if lam <= 0:
            raise ValueError("lambda_lower must be positive")
    cols, den = _goursat(list(zip(*p.coeffs)), p.n1)
    encs = [_range_enclosure(row, den, _within(lam), max_levels) for row in zip(*cols)]
    bound = max(Fraction(max(-lo, hi), scale) for lo, hi, *_, scale in encs)
    q1 = 2 * powers_reznick_degree(p.n1, bound, lam)
    return q1, NestedDegreeReport(q1, lam, bound, None, None, None)


def _q2_stop(lo, hi, levels, min_value, min_point, max_value, max_point, scale) -> bool:
    """Stop once the row is refuted or its lower bound is within a factor two
    of an attained value: both at the level's one scale, which drops out."""
    return min_value <= 0 or (lo > 0 and min_value <= 2 * lo)


def nested_q2(
    p: BPoly,
    q1: int,
    report: NestedDegreeReport,
    max_levels: int = DEFAULT_REFINEMENT_CAP,
) -> tuple[int, NestedDegreeReport]:
    """Shared x2 degree certifying every coefficient polynomial positive.

    For each row i, the Goursat coefficient magnitudes of A_i(x2), taken as a
    degree-n2 vector, are computed exactly, and a positive lower bound on
    inf A_i over [0, 1] is certified by range enclosure (refined until the
    bound is within a factor two of an attained value).  The degree is the
    largest 2 * powers_reznick_degree(n2, maxB_i, inf_i), the one of the
    row with the largest maxB_i / inf_i.  All of it runs on the x1 pass's
    integer rows over their one denominator: the Goursat vectors by the x1
    pass over one ``_goursat`` call on p's rows, the enclosures by integer
    de Casteljau with an integer stop rule, the largest ratio by
    cross-multiplying; only the per-row bounds become Fractions.
    """
    return _q2_of_rows(p, q1, *_coefficient_rows(p, q1), report, max_levels)


def _q2_of_rows(p, q1, rows, den, report, max_levels) -> tuple[int, NestedDegreeReport]:
    """``nested_q2`` on the x1 rows (rows, D) it computes.  The Goursat map
    acts on each row's x2 coefficients and is linear, so it commutes with
    the x1 pass: the rows' Goursat vectors are the x1 pass at q1 of p's own
    (``_goursat`` over p's n1 + 1 rows, cleared to the same D), integers."""
    n2 = p.n2
    goursat_p, _ = _goursat(p.coeffs, n2)
    goursat_rows, _ = _plain_pass(list(zip(*goursat_p)), q1)
    infs, maxbs = [], []
    for i, (row, e) in enumerate(zip(rows, goursat_rows)):
        try:
            level = _range_enclosure(row, den, _q2_stop, max_levels)
        except InconclusiveError as exc:
            raise InconclusiveError(
                f"coefficient polynomial {i} could not be certified positive "
                f"within {max_levels} bisection levels",
                best=exc.best,
            ) from exc
        lo, _, _, min_value, _, _, _, scale = level
        if min_value <= 0 or lo <= 0:
            enc = _enclosure(*level)
            raise InconclusiveError(
                f"coefficient polynomial {i} is not certifiably positive "
                f"(value {rat_text(enc.min_value)} at {rat_text(enc.min_point)})",
                best=enc,
            )
        maxb = max(map(abs, e))
        infs.append(Fraction(lo, scale))
        maxbs.append(Fraction(maxb, den))
        # The degree grows with maxB_i / inf_i = maxb scale / (D lo), so the
        # first row with the largest one sets it.
        if i == 0 or maxb * scale * worst_lo > worst_num * lo:
            worst, worst_num, worst_lo = i, maxb * scale, lo
    q2 = 2 * powers_reznick_degree(n2, maxbs[worst], infs[worst])
    return q2, NestedDegreeReport(
        report.q1, report.lambda_lower, report.l_upper, q2, tuple(infs), tuple(maxbs)
    )


def nested_rows(
    p: BPoly,
    *,
    max_doublings: int = DEFAULT_DOUBLING_CAP,
    max_levels: int = DEFAULT_REFINEMENT_CAP,
) -> CertificateRows:
    """``certify_nested`` up to its matrix: both degree computations run, and
    the x2 pass over stage 2's x1 rows is left to be read, each row checked
    by ``CertificateRows`` as it is made.  Raises as ``certify_nested``
    does, the CertificationError when the bad row is read."""
    q1, report = nested_q1(p, max_doublings=max_doublings, max_levels=max_levels)
    rows, den = _coefficient_rows(p, q1)
    q2, report = _q2_of_rows(p, q1, rows, den, report, max_levels)
    return CertificateRows(q1, q2, Method.NESTED, report, _plain_rows(rows, q2), den)


def certify_nested(
    p: BPoly,
    *,
    max_doublings: int = DEFAULT_DOUBLING_CAP,
    max_levels: int = DEFAULT_REFINEMENT_CAP,
) -> PositivityCertificate:
    """Certify p > 0 on the unit box by the nested univariate construction.

    Runs the two degree computations, both on integers and with every bound
    computed, then takes the plain Bernstein coefficients of p at (q1, q2)
    by the x2 pass over stage 2's x1 rows (``nested_rows``, collected); all
    entries of that matrix are strictly positive, and its expansion
    reproduces p exactly.
    """
    return nested_rows(p, max_doublings=max_doublings, max_levels=max_levels).collect()
