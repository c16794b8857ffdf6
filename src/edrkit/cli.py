"""Command-line front end: snf, check, diadem, witness, verify.

Outputs are line-oriented, deterministic, and versioned with a leading
`# edr-kit v1` comment.  Exit codes: 0 success (or property holds),
1 negative verdict or unsupported operation, 2 parse or usage error.
Prefix negative element literals with `--`, e.g. `diadem Z 7 -- -5`.

Each verb imports the layers it runs, so one process compiles only those:
argv that argparse rejects loads no ring module, and a verb over Z or Z/n
never loads the GF(p)[x] carrier.
"""

from __future__ import annotations

import argparse
import sys

from .properties import DEFAULT_PAIR_BOUND, DEFAULT_TRIPLE_BOUND, RingProperty

HEADER = "# edr-kit v1"

# the properties `check` decides, in the order of finite_lab.CHECKERS
_CHECKED_PROPERTIES = tuple(p for p in RingProperty if p is not RingProperty.ASSOCIATE_DIADEMS)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edr-kit",
        description="Exact diagonal reduction and ring-property checking",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_snf = sub.add_parser("snf", help="diagonal reduction certificate for a matrix")
    p_snf.add_argument("ring", help="ring literal (Z or GF(p)[x])")
    p_snf.add_argument("matrix", help="path to a matrix file")
    p_snf.add_argument("--output", help="write the certificate here instead of stdout")

    p_check = sub.add_parser("check", help="exhaustive property check on a finite ring")
    p_check.add_argument("ring", help="finite ring literal")
    p_check.add_argument(
        "property",
        help="property name or 'all': "
        + ", ".join(p.value for p in _CHECKED_PROPERTIES),
    )
    p_check.add_argument(
        "--bound",
        type=int,
        default=None,
        help="cardinality bound override (defaults: %d pair-quantifier, %d triple-quantifier)"
        % (DEFAULT_PAIR_BOUND, DEFAULT_TRIPLE_BOUND),
    )

    p_diadem = sub.add_parser("diadem", help="diadem witness for a comaximal pair")
    p_diadem.add_argument("ring")
    p_diadem.add_argument("a")
    p_diadem.add_argument("b")
    p_diadem.add_argument(
        "--bound",
        type=int,
        default=DEFAULT_PAIR_BOUND,
        help="certify the quotient stable-range-1 evidence up to this quotient size",
    )

    p_witness = sub.add_parser(
        "witness", help="stable-range-2 shortening of a comaximal triple"
    )
    p_witness.add_argument("ring")
    p_witness.add_argument("a")
    p_witness.add_argument("b")
    p_witness.add_argument("c")

    p_verify = sub.add_parser("verify", help="check a reduction certificate")
    p_verify.add_argument("ring")
    p_verify.add_argument("matrix", help="path to the matrix file")
    p_verify.add_argument("certificate", help="path to the certificate file")
    return parser


def _read_file(path: str) -> str:
    from .rings import RingParseError

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise RingParseError(f"cannot read {path}: {exc.strerror}") from None


def _cmd_snf(args, out) -> int:
    from .matrices import format_certificate, parse_matrix
    from .reduction import smith_normal_form
    from .rings import ring_parse

    ring = ring_parse(args.ring)
    matrix = parse_matrix(ring, _read_file(args.matrix))
    cert = smith_normal_form(ring, matrix)
    text = HEADER + "\n" + format_certificate(cert)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        out.write(text)
    return EXIT_OK


def _cmd_check(args, out) -> int:
    from .finite_lab import CHECKERS
    from .rings import InfiniteRingError, RingParseError, ring_parse

    ring = ring_parse(args.ring)
    if not ring.finite:
        raise InfiniteRingError(f"infinite ring {ring.spec()}")
    if args.property == "all":
        names = list(CHECKERS)
    else:
        try:
            names = [RingProperty(args.property)]
        except ValueError:
            raise RingParseError(f"unknown property {args.property!r}") from None
        if names[0] not in CHECKERS:
            raise RingParseError(f"unknown property {args.property!r}")
    out.write(HEADER + "\n")
    all_hold = True
    for name in names:
        checker = CHECKERS[name]
        report = checker(ring) if args.bound is None else checker(ring, bound=args.bound)
        out.write(report.line() + "\n")
        all_hold = all_hold and report.holds
    return EXIT_OK if all_hold else EXIT_NEGATIVE


def _cmd_diadem(args, out) -> int:
    from . import finite_lab
    from .rings import quotient_ring, ring_parse

    ring = ring_parse(args.ring)
    a = ring.parse_element(args.a)
    b = ring.parse_element(args.b)
    if not finite_lab.is_comaximal(ring, (a, b)):
        print("pair not comaximal", file=sys.stderr)
        return EXIT_NEGATIVE
    witness = finite_lab.find_diadem(ring, a, b, args.bound)
    if witness.evidence is finite_lab.DiademEvidence.QUOTIENT_STABLE_RANGE_1:
        # spot-certify the quotient criterion when the quotient is small
        small = quotient_ring(ring, witness.diadem).cardinality <= args.bound
        if small and not finite_lab.is_diadem_via_quotient(
            ring, a, b, witness.multiplier, args.bound
        ):
            raise AssertionError("diadem failed its quotient spot-certification")
    out.write(HEADER + "\n")
    out.write(
        "multiplier=%s diadem=%s evidence=%s\n"
        % (
            ring.format_element(witness.multiplier),
            ring.format_element(witness.diadem),
            witness.evidence.value,
        )
    )
    return EXIT_OK


def _cmd_witness(args, out) -> int:
    from .finite_lab import is_comaximal
    from .reduction import stable_range_2_witness
    from .rings import ring_parse

    ring = ring_parse(args.ring)
    a, b, c = (ring.parse_element(t) for t in (args.a, args.b, args.c))
    if not is_comaximal(ring, (a, b, c)):
        print("triple not comaximal", file=sys.stderr)
        return EXIT_NEGATIVE
    witness = stable_range_2_witness(ring, a, b, c)
    out.write(HEADER + "\n")
    out.write(
        "p=%s q=%s\n"
        % (ring.format_element(witness.p), ring.format_element(witness.q))
    )
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    from .matrices import parse_certificate, parse_matrix
    from .rings import ring_parse
    from .verification import check_certificate

    ring = ring_parse(args.ring)
    matrix = parse_matrix(ring, _read_file(args.matrix))
    cert = parse_certificate(ring, _read_file(args.certificate))
    failure = check_certificate(ring, matrix, cert)
    out.write(HEADER + "\n")
    if failure is None:
        out.write("valid\n")
        return EXIT_OK
    out.write(f"invalid: {failure}\n")
    return EXIT_NEGATIVE


_COMMANDS = {
    "snf": _cmd_snf,
    "check": _cmd_check,
    "diadem": _cmd_diadem,
    "witness": _cmd_witness,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    from .rings import (
        CardinalityBoundError,
        CertificateShapeError,
        InfiniteRingError,
        RingParseError,
        UnsupportedRingError,
    )

    try:
        return _COMMANDS[args.verb](args, out)
    except (RingParseError, CertificateShapeError, InfiniteRingError, CardinalityBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UnsupportedRingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except Exception as exc:  # exit-code contract: never escape with a traceback
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
