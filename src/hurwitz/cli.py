"""Command-line front end.

One subcommand per capability, plain text in and out, exit codes usable
from shell pipelines: 0 for success (and for "equivalent"), 1 for a
negative verdict (equiv's "NOT EQUIVALENT", census's "theorem=VIOLATED"),
2 for any error.  File arguments accept ``-`` for stdin.
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Iterator, TextIO

from .errors import FormatError, HurwitzError
from .factorization import (
    DEFAULT_CAP,
    Factorization,
    apply_certificate,
    apply_move,
    format_factorization,
    parse_certificate,
    parse_factorization,
)
from .graph import _dot_lines, format_signature, signature

# canonical, oracle and braid are imported inside the commands that run them,
# so a process compiles and loads only the modules its command needs.


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # exc.start counts bytes, so it is no character offset into the text
        name = "stdin" if path == "-" else path
        raise FormatError(
            f"{name}: not {exc.encoding} text, bad byte at offset {exc.start}"
        ) from None


def _load_factorization(path: str) -> Factorization:
    return parse_factorization(_read_text(path))


# DOT text and certificates are written this many lines at a time: the
# whole text, a string a line and then their join, would outweigh what it is
# made from.
_LINES = 1 << 12


def _write_lines(lines: Iterator[str], out: TextIO) -> None:
    """Write ``lines``, each followed by a newline, _LINES at a time."""
    while chunk := list(islice(lines, _LINES)):
        chunk.append("")
        out.write("\n".join(chunk))


def _cmd_sig(args: argparse.Namespace) -> int:
    f = _load_factorization(args.file)
    # write the side file first, so a failed write leaves stdout empty
    if args.dot:
        with Path(args.dot).open("w") as out:
            _write_lines(_dot_lines(f), out)
    print(format_signature(signature(f)))
    return 0


def _cmd_equiv(args: argparse.Namespace) -> int:
    from .canonical import hurwitz_equivalent

    f1 = _load_factorization(args.file1)
    f2 = _load_factorization(args.file2)
    equivalent = hurwitz_equivalent(f1, f2)
    if not args.quiet:
        print("EQUIVALENT" if equivalent else "NOT EQUIVALENT")
    return 0 if equivalent else 1


def _cmd_canon(args: argparse.Namespace) -> int:
    from .canonical import canonical_form

    f = _load_factorization(args.file)
    result = canonical_form(f)
    print(format_factorization(result.canonical))
    if args.cert:
        # the moves of canonical_form, so their text needs no type check
        _write_lines(map(attrgetter("_text"), result.certificate), sys.stdout)
    return 0


def _cmd_move(args: argparse.Namespace) -> int:
    f = _load_factorization(args.file)
    moves = parse_certificate(args.move)
    if len(moves) != 1:
        raise FormatError(
            f"expected exactly one move like F@0, got {args.move!r}", position=0
        )
    print(format_factorization(apply_move(f, moves[0])))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    f = _load_factorization(args.file)
    certificate = parse_certificate(_read_text(args.certfile))
    print(format_factorization(apply_certificate(f, certificate)))
    return 0


def _cmd_orbit(args: argparse.Namespace) -> int:
    from .oracle import enumerate_orbit

    f = _load_factorization(args.file)
    report = enumerate_orbit(f, cap=args.cap)
    print(f"size={report.orbit_size}")
    print(f"truncated={'true' if report.truncated else 'false'}")
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    from .oracle import orbit_partition

    partition = orbit_partition(args.degree, args.length, cap=args.cap)
    total = 0
    orbits = 0
    truncated = False
    for sig, reports in partition:
        for report in reports:
            if not args.quiet:
                print(
                    f"orbit size={report.orbit_size} "
                    f"truncated={'true' if report.truncated else 'false'} "
                    f"sig={format_signature(sig)}"
                )
            total += report.orbit_size
            orbits += 1
            truncated = truncated or report.truncated
    if truncated:
        verdict = "UNKNOWN"
    elif all(len(reports) == 1 for _, reports in partition):
        verdict = "OK"
    else:
        verdict = "VIOLATED"
    print(
        f"total factorizations={total} orbits={orbits} "
        f"signatures={len(partition)} theorem={verdict}"
    )
    return 1 if verdict == "VIOLATED" else 0


def _cmd_project(args: argparse.Namespace) -> int:
    from .braid import parse_braid_tuple, project_tuple

    braid = parse_braid_tuple(_read_text(args.file))
    print(format_factorization(project_tuple(braid)))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    f = _load_factorization(args.file)
    _write_lines(_dot_lines(f), sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurwitz",
        description=(
            "Decide Hurwitz equivalence of identity factorizations, "
            "canonicalize with replayable move certificates, and enumerate "
            "orbits by brute force."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sig", help="print the component signature")
    p.add_argument("file", help="factorization file, or - for stdin")
    p.add_argument("--dot", metavar="FILE", help="also write the graph as DOT")
    p.set_defaults(func=_cmd_sig)

    p = sub.add_parser(
        "equiv", help="decide equivalence; exit 0 if equivalent, 1 if not"
    )
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--quiet", action="store_true", help="no output, exit code only")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("canon", help="print the canonical form")
    p.add_argument("file")
    p.add_argument(
        "--cert",
        action="store_true",
        help="also print the move certificate, one move per line",
    )
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("move", help="apply a single move such as F@0 or I@2")
    p.add_argument("file")
    p.add_argument("move", help="move in F@<k> / I@<k> form")
    p.set_defaults(func=_cmd_move)

    p = sub.add_parser("replay", help="apply a certificate file")
    p.add_argument("file")
    p.add_argument("certfile", help="certificate file, or - for stdin")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("orbit", help="enumerate the orbit by BFS")
    p.add_argument("file")
    p.add_argument(
        "--cap", type=int, default=DEFAULT_CAP, help="state cap (default 10^6)"
    )
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser(
        "census",
        help="partition all identity factorizations of (degree, length) "
        "into orbits grouped by signature",
    )
    p.add_argument("degree", type=int)
    p.add_argument("length", type=int)
    p.add_argument(
        "--cap", type=int, default=DEFAULT_CAP, help="state cap per orbit"
    )
    p.add_argument(
        "--quiet", action="store_true", help="print only the summary line"
    )
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("project", help="project a braid tuple to a factorization")
    p.add_argument("file", help="braid tuple file, or - for stdin")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("dot", help="print the factorization graph as DOT")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HurwitzError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
