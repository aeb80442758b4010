"""Command line front end.

Exit codes are the machine contract: 0 success, 1 usage or I/O or parse
errors, 2 refuted positivity or invalid certificate, 3 inconclusive within
the iteration caps.  Diagnostics go to standard error as one-line
``key=value`` records; rational values are printed as ``num/den``.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Optional

from . import __version__
from .documents import (
    CertificateDocument,
    ParseError,
    parse_certificate_document,
    parse_polynomial_document,
    parse_rational,
    serialize_certificate_document,
)
from .errors import DegreeError, InconclusiveError, NotPositiveError
from .certificates import verify
from .nested import certify_nested
from .raising import certify_raise, min_enclosure, min_enclosure_to_width

DEFAULT_REFINEMENT_CAP = 64
DEFAULT_DOUBLING_CAP = 20


def _diag(**fields) -> None:
    parts = []
    for key, value in fields.items():
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        parts.append(f"{key}={value}")
    print(" ".join(parts), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _diag(status="usage-error", detail=message.replace(" ", "_"))
        raise SystemExit(1)


def _read_polynomial(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_polynomial_document(handle.read())


def _write_atomically(path: str, text: str) -> None:
    """Write text to path so that a failed write leaves path as it was.

    The text goes to a new file beside the target, created with mode 0666
    masked by the umask like any new file, and is then renamed onto the
    target; a symbolic link is followed, so the file it names is replaced.
    A target that exists but is not a regular file (a pipe, a device) is
    written in place, since a rename would replace the special file itself.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _parse_point(text: str) -> list[Fraction]:
    return [parse_rational(tok.strip()) for tok in text.split(",")]


def cmd_certify(args) -> int:
    doc = _read_polynomial(args.input)
    if doc.variables != 2:
        _diag(status="usage-error", detail="certify requires a bivariate polynomial")
        return 1
    p = doc.to_bpoly()
    doublings = args.max_iter if args.max_iter is not None else DEFAULT_DOUBLING_CAP
    levels = args.max_iter if args.max_iter is not None else DEFAULT_REFINEMENT_CAP
    try:
        if args.method == "nested":
            if args.q_start is not None:
                _diag(status="usage-error", detail="--q-start applies to --method raise")
                return 1
            cert = certify_nested(p, max_doublings=doublings, max_levels=levels)
        else:
            q_start: Optional[tuple[int, int]] = None
            if args.q_start is not None:
                try:
                    q1, q2 = args.q_start.split(",")
                    q_start = (int(q1), int(q2))
                except ValueError:
                    _diag(status="usage-error", detail="--q-start expects q1,q2")
                    return 1
            cert = certify_raise(p, q_start=q_start, max_doublings=doublings)
    except NotPositiveError as exc:
        _diag(status="not-positive", witness=exc.witness, value=exc.value)
        return 2
    except InconclusiveError as exc:
        best = exc.best
        if best is not None and hasattr(best, "lo"):
            _diag(status="inconclusive", lo=best.lo, hi=best.hi)
        else:
            _diag(status="inconclusive")
        return 3
    except DegreeError as exc:
        _diag(status="usage-error", detail=str(exc).replace(" ", "_"))
        return 1
    text = serialize_certificate_document(CertificateDocument.from_certificate(cert))
    _write_atomically(args.output, text)
    print(f"certified method={cert.method.value} q1={cert.q1} q2={cert.q2}")
    return 0


def cmd_verify(args) -> int:
    doc = _read_polynomial(args.poly)
    if doc.variables != 2:
        _diag(status="usage-error", detail="verify requires a bivariate polynomial")
        return 1
    with open(args.certificate, "r", encoding="utf-8") as handle:
        cert_doc = parse_certificate_document(handle.read())
    result = verify(doc.to_bpoly(), cert_doc.to_certificate())
    if result:
        print("ok")
        return 0
    _diag(status="invalid", reason=result.reason.replace(" ", "_"))
    return 2


def cmd_enclose_min(args) -> int:
    doc = _read_polynomial(args.input)
    if doc.variables != 2:
        _diag(status="usage-error", detail="enclose-min requires a bivariate polynomial")
        return 1
    p = doc.to_bpoly()
    cap = args.max_iter if args.max_iter is not None else DEFAULT_DOUBLING_CAP
    if args.target_width is not None:
        width = parse_rational(args.target_width)
        if width <= 0:
            _diag(status="usage-error", detail="--target-width must be positive")
            return 1
        enc = min_enclosure_to_width(p, width, cap)
        print(f"{enc.lo} {enc.hi} {enc.q1} {enc.q2}")
        return 0 if enc.bound <= width else 3
    if args.q1 is None or args.q2 is None:
        _diag(status="usage-error", detail="provide --q1 and --q2, or --target-width")
        return 1
    try:
        enc = min_enclosure(p, args.q1, args.q2)
    except DegreeError as exc:
        _diag(status="usage-error", detail=str(exc).replace(" ", "_"))
        return 1
    print(f"{enc.lo} {enc.hi} {enc.q1} {enc.q2}")
    return 0


def cmd_eval(args) -> int:
    doc = _read_polynomial(args.input)
    point = _parse_point(args.at)
    if len(point) != doc.variables:
        _diag(
            status="usage-error",
            detail=f"expected {doc.variables} coordinates, got {len(point)}",
        )
        return 1
    if doc.variables == 1:
        value = doc.to_upoly().eval(point[0])
    else:
        value = doc.to_bpoly().eval(point[0], point[1])
    print(value)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="berncert",
        description=(
            "Certify strict positivity of polynomials on the unit box and "
            "compute certified minimum enclosures, in exact rational arithmetic."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    certify = sub.add_parser("certify", help="emit a positivity certificate file")
    certify.add_argument("input", help="polynomial document")
    certify.add_argument("output", help="certificate document to write")
    certify.add_argument(
        "--method", choices=("nested", "raise"), required=True,
        help="certification pipeline to run",
    )
    certify.add_argument(
        "--max-iter", type=int, default=None,
        help="iteration cap (default 64 bisection levels / 20 degree doublings)",
    )
    certify.add_argument(
        "--q-start", default=None,
        help="starting degrees q1,q2 for --method raise",
    )
    certify.set_defaults(func=cmd_certify)

    verify_p = sub.add_parser("verify", help="check a certificate against a polynomial")
    verify_p.add_argument("poly", help="polynomial document")
    verify_p.add_argument("certificate", help="certificate document")
    verify_p.set_defaults(func=cmd_verify)

    enclose = sub.add_parser(
        "enclose-min", help="certified enclosure of the minimum over the box"
    )
    enclose.add_argument("input", help="polynomial document")
    enclose.add_argument("--q1", type=int, default=None)
    enclose.add_argument("--q2", type=int, default=None)
    enclose.add_argument(
        "--target-width", default=None,
        help="double degrees until the error bound is at most this rational",
    )
    enclose.add_argument("--max-iter", type=int, default=None,
                         help="doubling cap (default 20)")
    enclose.set_defaults(func=cmd_enclose_min)

    eval_p = sub.add_parser("eval", help="evaluate a polynomial exactly")
    eval_p.add_argument("input", help="polynomial document")
    eval_p.add_argument("--at", required=True, help="point, e.g. 1/2 or 1/2,2/3")
    eval_p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "max_iter", None) is not None and args.max_iter < 0:
            parser.error(f"argument --max-iter: {args.max_iter} is negative")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, UnicodeDecodeError) as exc:
        _diag(status="parse-error", detail=str(exc).replace(" ", "_"))
        return 1
    except OSError as exc:
        _diag(status="io-error", detail=str(exc).replace(" ", "_"))
        return 1


if __name__ == "__main__":
    sys.exit(main())
