"""Judges the package's responses against the generator's expectations.

Nothing here imports ``hurwitz``.  Certificates are replayed with the
reference move rule and the canonical form is compared with the shape built
from the reference signature, so a wrong response fails even if the package
agrees with itself.
"""

from __future__ import annotations

import ref

REPLAY_MARK = "\n=== replay\n"


def check_certificate(req, canonical, certificate, read):
    """Return a failure reason, or None: the canonical line must equal the
    shape rule's output, and replaying the certificate lines over the input
    with the reference move rule must reach it exactly."""
    if canonical != req["expect"]["canonical"]:
        return "canonical form does not match the shape rule"
    try:
        n, factors = ref.parse_factorization(read(req["files"][0]))
        moves = ref.parse_moves(certificate)
        reached = ref.replay(factors, moves)
    except ValueError as exc:
        return f"certificate does not replay: {exc}"
    if ref.format_factorization(n, reached) != canonical:
        return "certificate replays to a different factorization"
    return None


def check(req, response, read):
    """Return a failure reason for one response, or None when it is right.

    ``read(name)`` returns the text of one of the request's input files.
    """
    expect = req["expect"]
    if "error" in expect:
        wanted = f"error: {expect['error']}"
    elif req["kind"] == "equiv":
        wanted = f"exit={expect['exit']}"
    elif req["kind"] == "certify":
        printed, mark, replayed = response.partition(REPLAY_MARK)
        if not mark:
            return f"no replay section in {response[:80]!r}"
        canonical, _, certificate = printed.partition("\n")
        if replayed != canonical:
            return "replay output differs from the printed canonical form"
        return check_certificate(req, canonical, certificate, read)
    else:
        wanted = expect["output"]
    if response != wanted:
        return f"expected {wanted[:80]!r}, got {response[:80]!r}"
    return None


def certificate_moves(response):
    """Moves in a certify response (the lines between canonical form and replay)."""
    printed = response.partition(REPLAY_MARK)[0]
    return len([line for line in printed.split("\n")[1:] if line])


def check_cli(req, stdout, read):
    """Judge the stdout of the real CLI run on a request (used for setup_s)."""
    if req["kind"] == "certify":
        canonical, _, certificate = stdout.rstrip("\n").partition("\n")
        return check_certificate(req, canonical, certificate, read)
    wanted = req["expect"]["output"] + "\n"
    if stdout != wanted:
        return f"expected {wanted[:80]!r}, got {stdout[:80]!r}"
    return None
