"""The user path of each input, run through the library's public functions.

The CLI runs ``certify``, ``verify`` and ``enclose-min`` as single calls.  Here
the same work is split at each module boundary (cli, raising, nested,
univariate, certificates, documents) and every call is wrapped in a span, so
a traced pass shows where the time goes.  The ``cli.*`` spans are the steps
the CLI adds around the library: argument parsing, reading and parsing the
polynomial file, and writing and reading the certificate file.

Spans marked ``replay`` redo work that happened inside an earlier call in
order to time one layer on its own (the raising kernel inside
``certify_raise``, the range enclosures inside ``nested_q1`` and
``nested_q2``, the expansion inside ``verify``).  A replay follows its own
copy of the library's policy, so each one checks its result against what the
library returned, and raises ``ReplayMismatch`` when they differ: the replay
would no longer time the program's work.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from berncert.certificates import Method, PositivityCertificate, expand_plain_2d, verify
from berncert.cli import DEFAULT_DOUBLING_CAP, DEFAULT_REFINEMENT_CAP, build_parser
from berncert.documents import (
    CertificateDocument,
    parse_certificate_document,
    parse_polynomial_document,
    serialize_certificate_document,
)
from berncert.errors import NotPositiveError
from berncert.nested import coefficient_bernstein_polys, nested_q1, nested_q2
from berncert.polys import BPoly, UPoly
from berncert.raising import (
    bern_coeffs,
    certify_raise,
    enclosure_bound,
    gamma_bounds,
    min_coeff,
    min_enclosure,
    minimum_lower_bound,
)
from berncert.univariate import goursat_coefficients, range_enclosure_1d, to_bernstein_plain

from inputs import CORPUS, ENCLOSE, NEAR_ZERO, NEAR_ZERO_WIDTH, REFUTE


class ReplayMismatch(Exception):
    """A replay reached a result the library did not."""


class Tracer:
    """Spans and counts kept in memory until the run ends.

    A span is (id, parent id, input, name, start ns, end ns, replay).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.input = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, replay: bool = False):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, self.input, name, start, end, replay)

    def count(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def span_cost() -> float:
    """Seconds one empty span costs, the median of five batches of 20,000."""
    took = []
    for _ in range(5):
        t = Tracer()
        start = time.perf_counter()
        for _ in range(20000):
            with t.span("empty"):
                pass
        took.append((time.perf_counter() - start) / 20000)
    return sorted(took)[2]


def _floor(n: int) -> int:
    return max(n, 2)


def _goursat_rows(p: BPoly) -> list[UPoly]:
    """The Goursat coefficient polynomials B_k(x2) of p's rows, whose range
    enclosures nested_q1 takes: column j of p transformed gives the x2**j
    coefficients."""
    cols = [
        goursat_coefficients(UPoly([row[j] for row in p.coeffs]), n=p.n1)
        for j in range(p.n2 + 1)
    ]
    return [UPoly([col[k] for col in cols]) for k in range(p.n1 + 1)]


def _nested_q2_stop(enc) -> bool:
    # The stopping rule nested_q2 gives range_enclosure_1d.
    return enc.min_value <= 0 or (enc.lo > 0 and enc.min_value <= 2 * enc.lo)


def _replay_enclosures(t, p: BPoly, lam, apolys, report) -> None:
    """Redo the range enclosures of nested_q1 and nested_q2, and check that
    they give the bounds the library put in its report."""
    with t.span("univariate.range_enclosure", replay=True):
        goursat = [
            range_enclosure_1d(b, max_width=lam, max_levels=DEFAULT_REFINEMENT_CAP)
            for b in _goursat_rows(p)
        ]
        rows = [
            range_enclosure_1d(a, predicate=_nested_q2_stop, max_levels=DEFAULT_REFINEMENT_CAP)
            for a in apolys
        ]
    l_upper = max((max(abs(e.lo), abs(e.hi)) for e in goursat), default=Fraction(0))
    if l_upper != report.l_upper:
        raise ReplayMismatch(f"enclosure replay gives L = {l_upper}, nested_q1 {report.l_upper}")
    if tuple(e.lo for e in rows) != report.per_i_inf_lower:
        raise ReplayMismatch("enclosure replay gives other row lower bounds than nested_q2")
    t.count("univariate.bisection_levels", sum(e.subdivisions for e in goursat + rows))


def _certify_nested(t, p: BPoly) -> PositivityCertificate:
    """certify_nested, one span per stage."""
    with t.span("raising.minimum_lower_bound"):
        lam, _ = minimum_lower_bound(p, DEFAULT_DOUBLING_CAP)
    with t.span("nested.q1"):
        q1, report = nested_q1(p, lambda_lower=lam, max_levels=DEFAULT_REFINEMENT_CAP)
    with t.span("nested.q2"):
        q2, report = nested_q2(p, q1, report, max_levels=DEFAULT_REFINEMENT_CAP)
    with t.span("nested.coefficient_polys"):
        apolys = coefficient_bernstein_polys(p, q1)
    with t.span("univariate.to_bernstein_plain"):
        rows = tuple(to_bernstein_plain(a, q2).coeffs for a in apolys)
    _replay_enclosures(t, p, lam, apolys, report)
    t.count("nested.q1", q1)
    t.count("nested.q2", q2)
    return PositivityCertificate(q1, q2, rows, Method.NESTED, report)


def _replay_kernel(t, p: BPoly, outcome) -> None:
    """Redo the bern_coeffs calls of certify_raise, one span each, and check
    that they end where certify_raise ended.

    Like certify_raise, the replay doubles both degrees from the floors until
    the minimum coefficient is positive (a certificate, which must have the
    replay's last degrees and doubling count) or the enclosure's upper end is
    at most 0 (a refutation, whose witness must lie on the replay's last grid).
    """
    q1, q2 = _floor(p.n1), _floor(p.n2)
    g1, g2 = gamma_bounds(p)
    step = 0
    while True:
        with t.span("raising.bern_coeffs", replay=True):
            c_min = min_coeff(bern_coeffs(p, q1, q2))
        t.count("raising.bern_coeffs_calls", 1)
        if c_min > 0 or c_min + enclosure_bound(g1, g2, q1, q2) <= 0:
            break
        if step == DEFAULT_DOUBLING_CAP:
            raise ReplayMismatch("kernel replay passed the doubling cap")
        q1, q2, step = 2 * q1, 2 * q2, step + 1
    if isinstance(outcome, NotPositiveError):
        x1, x2 = outcome.witness
        if c_min > 0 or (x1 * q1).denominator != 1 or (x2 * q2).denominator != 1:
            raise ReplayMismatch(f"witness {outcome.witness} is not on the replay's grid ({q1}, {q2})")
    elif (q1, q2, step) != (outcome.q1, outcome.q2, outcome.report.doublings):
        raise ReplayMismatch(
            f"kernel replay ends at ({q1}, {q2}) after {step} doublings, certify_raise at "
            f"({outcome.q1}, {outcome.q2}) after {outcome.report.doublings}")
    t.count("raising.doublings", step)


def _certify_raise(t, p: BPoly):
    """certify_raise; returns the certificate, or the refutation raised."""
    with t.span("raising.certify_raise"):
        try:
            cert = certify_raise(p, max_doublings=DEFAULT_DOUBLING_CAP)
        except NotPositiveError as exc:
            cert = exc
    with t.span("raising.kernel_replay", replay=True):
        _replay_kernel(t, p, cert)
    if not isinstance(cert, NotPositiveError):
        t.count("raising.certificates", 1)
    return cert


def _parse_args(t, argv: list[str]) -> None:
    with t.span("cli.parse_args"):
        build_parser().parse_args(argv)


def _read_polynomial(t, path: Path) -> BPoly:
    with t.span("cli.read_polynomial"):
        text = path.read_text(encoding="utf-8")
    with t.span("documents.parse_polynomial"):
        return parse_polynomial_document(text).to_bpoly()


def _certify(t, path: Path, cert_path: Path, method: str) -> PositivityCertificate:
    """What ``berncert certify`` does, up to writing the document."""
    _parse_args(t, ["certify", str(path), str(cert_path), "--method", method])
    p = _read_polynomial(t, path)
    if method == "nested":
        return _certify_nested(t, p)
    return _certify_raise(t, p)


def _write_and_verify(t, path: Path, cert_path: Path, cert: PositivityCertificate) -> str:
    """The end of ``certify`` and all of ``verify``: serialize and write the
    document, read and parse it back, verify.  Returns the sha256 of the
    certificate document."""
    with t.span("documents.serialize"):
        text = serialize_certificate_document(CertificateDocument.from_certificate(cert))
    with t.span("cli.write_certificate"):
        cert_path.write_text(text, encoding="utf-8")
    _parse_args(t, ["verify", str(path), str(cert_path)])
    p = _read_polynomial(t, path)
    with t.span("cli.read_certificate"):
        text = cert_path.read_text(encoding="utf-8")
    with t.span("documents.parse"):
        parsed = parse_certificate_document(text).to_certificate()
    with t.span("certificates.verify"):
        ok = bool(verify(p, parsed))
    if not ok:
        raise RuntimeError("library verify rejected the certificate")
    with t.span("certificates.expand_plain_2d", replay=True):
        expansion = expand_plain_2d(parsed.coefficients, parsed.q1, parsed.q2)
    if expansion != p:
        raise ReplayMismatch("expand_plain_2d replay does not give the polynomial back")
    data = text.encode("utf-8")
    q1, q2 = parsed.q1, parsed.q2
    t.count("documents.bytes", len(data))
    t.count("certificates.kernel_ops", q1 * q2 * (q1 + q2))
    t.count("certificates.cells", (q1 + 1) * (q2 + 1))
    return hashlib.sha256(data).hexdigest()


def _enclose(t, p: BPoly, q1: int, q2: int) -> str:
    """min_enclosure; returns the sha256 of the line enclose-min prints."""
    with t.span("raising.min_enclosure"):
        enc = min_enclosure(p, q1, q2)
    with t.span("raising.bern_coeffs", replay=True):
        c_min = min_coeff(bern_coeffs(p, q1, q2))
    if c_min != enc.c_min:
        raise ReplayMismatch(f"bern_coeffs replay gives minimum {c_min}, min_enclosure {enc.c_min}")
    t.count("raising.bern_coeffs_calls", 1)
    return hashlib.sha256(f"{enc.lo} {enc.hi} {enc.q1} {enc.q2}\n".encode()).hexdigest()


def _target_degrees(p: BPoly, width: Fraction) -> tuple[int, int]:
    """The degrees enclose-min --target-width picks: double both from the
    floors until the error bound is at most width.  The enclosure line holds
    the degrees, so the comparison with the CLI's output checks this copy."""
    g1, g2 = gamma_bounds(p)
    q1, q2 = _floor(p.n1), _floor(p.n2)
    for _ in range(DEFAULT_DOUBLING_CAP):
        if enclosure_bound(g1, g2, q1, q2) <= width:
            break
        q1, q2 = 2 * q1, 2 * q2
    return q1, q2


def run_input(t, kind: str, path: Path, work: Path, q: int) -> dict[str, str]:
    """The library form of one input's user path, on the polynomial file at
    ``path``, writing certificate files under ``work``.

    Returns the sha256 of each certificate document and of each enclosure
    line, keyed by operation like the CLI pass's output digests, so the two
    can be compared byte for byte.
    """
    digests = {}
    if kind == CORPUS:
        for method in ("nested", "raise"):
            cert_path = work / f"{path.stem}.{method}.library.cert"
            cert = _certify(t, path, cert_path, method)
            digests[f"certify_{method}"] = _write_and_verify(t, path, cert_path, cert)
    elif kind == NEAR_ZERO:
        cert_path = work / f"{path.stem}.raise.library.cert"
        cert = _certify(t, path, cert_path, "raise")
        digests["certify_raise"] = _write_and_verify(t, path, cert_path, cert)
        _parse_args(t, ["enclose-min", str(path), "--target-width", str(NEAR_ZERO_WIDTH)])
        p = _read_polynomial(t, path)
        digests["enclose"] = _enclose(t, p, *_target_degrees(p, NEAR_ZERO_WIDTH))
    elif kind == ENCLOSE:
        _parse_args(t, ["enclose-min", str(path), "--q1", str(q), "--q2", str(q)])
        digests["enclose"] = _enclose(t, _read_polynomial(t, path), q, q)
    elif kind == REFUTE:
        cert_path = work / f"{path.stem}.refuted.library.cert"
        if not isinstance(_certify(t, path, cert_path, "raise"), NotPositiveError):
            raise RuntimeError("expected a refutation")
    return digests
