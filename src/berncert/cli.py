"""Command line front end.

Exit codes are the machine contract: 0 success, 1 usage, I/O or parse
errors, a refused allocation or a certifier's internal error, 2 refuted
positivity or invalid certificate, 3 inconclusive within the iteration
caps.  Diagnostics go to standard error as one-line ``key=value`` records;
rational values are printed in full as ``num/den`` (``polys.rat_text``),
and spaces in a value as ``_``, so a record splits on spaces into its
fields.
The commands raise their failures; ``main`` alone turns each into its
record and exit code.  Both documents are read by ``_document_lines``,
which decodes a file one line at a time and names a byte that is not
UTF-8 by its position in the whole file.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Iterable, Iterator

from . import __version__
from .documents import (
    CertificateReader,
    ParseError,
    TooLargeError,
    certificate_lines,
    parse_rational,
    read_polynomial_document,
)
from .errors import CertificationError, DegreeError, InconclusiveError, NotPositiveError
from .certificates import Method, verify_rows
from .nested import nested_rows
from .polys import BPoly, rat_text
from .raising import (
    DEFAULT_DOUBLING_CAP,
    MinEnclosure,
    min_enclosure,
    min_enclosure_to_width,
    raise_rows,
)
from .univariate import DEFAULT_REFINEMENT_CAP


def _diag(**fields) -> None:
    parts = []
    for key, value in fields.items():
        if isinstance(value, tuple):
            value = ",".join(map(rat_text, value))
        parts.append(f"{key}={rat_text(value).replace(' ', '_')}")
    print(" ".join(parts), file=sys.stderr)


class _UsageError(Exception):
    """A command line that names no valid run: ``status=usage-error``."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _document_lines(path: str) -> Iterator[str]:
    """The lines of the document at path, the pieces ``str.splitlines``
    gives for its text, each LF-terminated line decoded as it is read.
    A byte that is not UTF-8 is a ParseError with the text
    ``bytes.decode("utf-8")`` gives for the whole file: 0x0A is never part
    of a multibyte character, so the decoder sees in a line what it sees in
    the file, and a position in the file is the line's start plus its own."""
    start = 0
    # 64 KB reads: a 7 MB certificate's lines come 30% faster than with 8 KB.
    with open(path, "rb", buffering=1 << 16) as handle:
        for line in handle:
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                first, last = start + exc.start, start + exc.end - 1
                where = (
                    f"byte 0x{line[exc.start]:02x} in position {first}" if first == last
                    else f"bytes in position {first}-{last}"
                )
                raise ParseError(f"'utf-8' codec can't decode {where}: {exc.reason}") from exc
            yield from text.splitlines()
            start += len(line)


def _read_polynomial(path: str):
    return read_polynomial_document(_document_lines(path))


def _read_bivariate(path: str, command: str) -> BPoly:
    doc = _read_polynomial(path)
    if doc.variables != 2:
        raise _UsageError(f"{command} requires a bivariate polynomial")
    return doc.to_bpoly()


def _write_atomically(path: str, lines: Iterable[str]) -> None:
    """Write lines to path, one at a time as they are made, so that a failed
    write, or an exception raised while making a line, leaves path as it was.

    The lines go to a new file beside the target, created with mode 0666
    masked by the umask like any new file, which is renamed onto the target
    once the last line is written, and removed if anything fails; a
    symbolic link is followed, so the file it names is replaced.  A target
    that exists but is not a regular file (a pipe, a device) is written in
    place, since a rename would replace the special file itself: when a
    line fails there, the reader has had the lines before it.  An OSError
    from creating the new file names path as given, not the file's random
    name.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _parse_point(text: str) -> list[Fraction]:
    return [parse_rational(tok.strip()) for tok in text.split(",")]


def cmd_certify(args) -> int:
    p = _read_bivariate(args.input, "certify")
    doublings = args.max_iter if args.max_iter is not None else DEFAULT_DOUBLING_CAP
    levels = args.max_iter if args.max_iter is not None else DEFAULT_REFINEMENT_CAP
    if Method(args.method) is Method.NESTED:
        cert = nested_rows(p, max_doublings=doublings, max_levels=levels)
    else:
        cert = raise_rows(p, max_doublings=doublings)
    _write_atomically(args.output, certificate_lines(cert))  # rows made as written
    print(f"certified method={cert.method.value} q1={cert.q1} q2={cert.q2}")
    return 0


def cmd_verify(args) -> int:
    p = _read_bivariate(args.poly, "verify")
    reader = CertificateReader(_document_lines(args.certificate))
    result = verify_rows(p, reader.q1, reader.q2, reader.checked_rows)
    if result:
        print("ok")
        return 0
    _diag(status="invalid", reason=result.reason)
    return 2


def cmd_enclose_min(args) -> int:
    p = _read_bivariate(args.input, "enclose-min")
    # Both degrees without a width, or a width without degrees.
    if (args.q1, args.q2).count(None) != (0 if args.target_width is None else 2):
        raise _UsageError("provide --q1 and --q2, or --target-width")
    if args.target_width is None and args.max_iter is not None:
        raise _UsageError("--max-iter applies to --target-width")
    if args.target_width is not None:
        width = parse_rational(args.target_width)
        if width <= 0:
            raise _UsageError("--target-width must be positive")
        cap = args.max_iter if args.max_iter is not None else DEFAULT_DOUBLING_CAP
        enc = min_enclosure_to_width(p, width, cap)
    else:
        enc = min_enclosure(p, args.q1, args.q2)
    print(f"{rat_text(enc.lo)} {rat_text(enc.hi)} {enc.q1} {enc.q2}")
    if args.target_width is not None and enc.bound > width:
        raise InconclusiveError(f"enclosure wider than {rat_text(width)}", best=enc)
    return 0


def cmd_eval(args) -> int:
    doc = _read_polynomial(args.input)
    point = _parse_point(args.at)
    if len(point) != doc.variables:
        raise _UsageError(f"expected {doc.variables} coordinates, got {len(point)}")
    if doc.variables == 1:
        value = doc.to_upoly().eval(point[0])
    else:
        value = doc.to_bpoly().eval(point[0], point[1])
    print(rat_text(value))
    return 0


def _certify_args(certify: argparse.ArgumentParser) -> None:
    certify.add_argument("input", help="polynomial document")
    certify.add_argument("output", help="certificate document to write")
    certify.add_argument(
        "--method", choices=[m.value for m in Method], required=True,
        help="certification pipeline to run",
    )
    certify.add_argument(
        "--max-iter", type=int, default=None,
        help=(
            f"iteration cap (default {DEFAULT_REFINEMENT_CAP} bisection levels"
            f" / {DEFAULT_DOUBLING_CAP} degree doublings)"
        ),
    )
    certify.set_defaults(func=cmd_certify)


def _verify_args(verify_p: argparse.ArgumentParser) -> None:
    verify_p.add_argument("poly", help="polynomial document")
    verify_p.add_argument("certificate", help="certificate document")
    verify_p.set_defaults(func=cmd_verify)


def _enclose_args(enclose: argparse.ArgumentParser) -> None:
    enclose.add_argument("input", help="polynomial document")
    enclose.add_argument("--q1", type=int, default=None)
    enclose.add_argument("--q2", type=int, default=None)
    enclose.add_argument(
        "--target-width", default=None,
        help="double degrees until the error bound is at most this rational",
    )
    enclose.add_argument("--max-iter", type=int, default=None,
                         help=f"doubling cap for --target-width (default {DEFAULT_DOUBLING_CAP})")
    enclose.set_defaults(func=cmd_enclose_min)


def _eval_args(eval_p: argparse.ArgumentParser) -> None:
    eval_p.add_argument("input", help="polynomial document")
    eval_p.add_argument("--at", required=True, help="point, e.g. 1/2 or 1/2,2/3")
    eval_p.set_defaults(func=cmd_eval)


# Each command's help line and the helper that defines its arguments.
_COMMANDS = {
    "certify": ("emit a positivity certificate file", _certify_args),
    "verify": ("check a certificate against a polynomial", _verify_args),
    "enclose-min": ("certified enclosure of the minimum over the box", _enclose_args),
    "eval": ("evaluate a polynomial exactly", _eval_args),
}


def build_parser() -> argparse.ArgumentParser:
    """The whole parser, every command a subparser ``berncert <command>``."""
    parser = _Parser(
        prog="berncert",
        description=(
            "Certify strict positivity of polynomials on the unit box and "
            "compute certified minimum enclosures, in exact rational arithmetic."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, define) in _COMMANDS.items():
        define(sub.add_parser(name, help=text))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of one command line.  A line that starts with a command
    builds only that command's parser, the one ``build_parser`` makes for
    it, so it parses and fails as the whole parser would; anything else
    (``--help``, ``--version``, an unknown command) builds the whole."""
    if argv and argv[0] in _COMMANDS:
        parser = _Parser(prog=f"berncert {argv[0]}")
        _COMMANDS[argv[0]][1](parser)
        return parser.parse_args(argv[1:])
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run one command; every failure it raises ends here as one record."""
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if getattr(args, "max_iter", None) is not None and args.max_iter < 0:
            raise _UsageError(f"argument --max-iter: {args.max_iter} is negative")
        return args.func(args)
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except NotPositiveError as exc:
        _diag(status="not-positive", witness=exc.witness, value=exc.value)
        return 2
    except InconclusiveError as exc:
        # A MinEnclosure from a doubling walk (raise, --target-width, or the
        # lower bound of nested's stage 1) bounds min p; nested's 1-D row
        # enclosures bound nothing about it.
        if isinstance(exc.best, MinEnclosure):
            _diag(status="inconclusive", lo=exc.best.lo, hi=exc.best.hi)
        else:
            _diag(status="inconclusive")
        return 3
    except CertificationError as exc:  # the certifier's degrees gave a nonpositive row
        _diag(status="internal-error", detail=str(exc))
        return 1
    except (_UsageError, DegreeError) as exc:
        _diag(status="usage-error", detail=str(exc))
        return 1
    except TooLargeError as exc:
        _diag(status="too-large", detail=str(exc))
        return 1
    except ParseError as exc:
        _diag(status="parse-error", detail=str(exc))
        return 1
    except OSError as exc:
        _diag(status="io-error", detail=str(exc))
        return 1
    except MemoryError:  # an allocation the machine refused
        _diag(status="out-of-memory")
        return 1


if __name__ == "__main__":
    sys.exit(main())
