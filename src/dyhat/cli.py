"""Command line front end.

One query per invocation.  Exit codes: 0 success (for iso: isomorphic),
1 failed census (and nothing else), 2 usage error, 3 not isomorphic,
4 domain error (malformed or oversized literal, non-dyadic value,
degenerate triangle, even j, bad bounds), 5 internal inconsistency (two
cross-checked routes disagreed, or a normalize --verify witness failed
re-application: a defect in dyhat, not in the input), each with a
diagnostic naming the violated invariant, 6 output could not be written
(render's --out file, with a one-line diagnostic, or stdout closed by its
reader, as in "dyhat census ... | head -1", silently).
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .classify import automorphism_group, census, isomorphic
from .dyadic import DyadicRational
from .errors import DomainError, InconsistencyError, InvalidHat, NotDyadic, ParseError
from .geometry import AffineMap, Point2, Triangle
from .hats import ROLE_ORDERS, Hat, _normalized, canonical_form, role_triples
from .oracle import perm_label
from .render import render_svg

# ASCII digits only: \d, int() and str.isdecimal() also take other
# scripts' digits, and int() takes "_", "+" and surrounding spaces
_INT = re.compile(r"-?[0-9]+")
#: The dyadic literal grammar, for fullmatch: the numerator, then after a
#: "/" a "2^k" exponent, a digit denominator or anything else, which is a
#: malformed denominator.
_LITERAL = re.compile(r"(-?[0-9]+)(?:/(?:2\^([0-9]+)|([0-9]+)|(.+)))?")

#: Longest digit string a literal may hold (numerator, denominator or k).
MAX_LITERAL_DIGITS = 1000
#: Largest k in a "digits/2^k" literal.
MAX_POW2_EXPONENT = 4096


def _bounded_int(digits: str, literal: str) -> int:
    """int(digits) for a part of literal.  ParseError refuses more than
    MAX_LITERAL_DIGITS digits, before conversion, and anything but an
    optional "-" and ASCII digits."""
    count = len(digits.lstrip("-"))
    if count > MAX_LITERAL_DIGITS:
        raise ParseError(
            f"literal has a {count}-digit part; at most "
            f"{MAX_LITERAL_DIGITS} digits are allowed"
        )
    if not _INT.fullmatch(digits):
        # parse_dyadic's pattern admits only these, so the parts refused
        # here are the parameters of a hat literal or of aut
        raise ParseError(f"hat parameters must be integers in {literal!r}")
    return int(digits)


def _ascii_int(text: str) -> int:
    """argparse type of the census bounds and --par: int(text) for ASCII
    digits with an optional "-" that int() reads, else a usage error."""
    try:
        if _INT.fullmatch(text):
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def parse_dyadic(text: str) -> DyadicRational:
    """Parse "[-]digits", "[-]digits/denom" or "[-]digits/2^k".

    Digit strings longer than MAX_LITERAL_DIGITS and k above
    MAX_POW2_EXPONENT are rejected with ParseError.
    """
    match = _LITERAL.fullmatch(text.strip())
    if not match:
        raise ParseError(f"malformed dyadic literal {text!r}")
    num_text, k_text, den_text, malformed = match.groups()
    num = _bounded_int(num_text, text)
    if k_text is not None:
        k = _bounded_int(k_text, text)
        if k > MAX_POW2_EXPONENT:
            raise ParseError(
                f"exponent 2^{k} exceeds the limit 2^{MAX_POW2_EXPONENT}"
            )
        return DyadicRational(num, -k)
    if malformed is not None:
        raise ParseError(f"malformed denominator in {text!r}")
    if den_text is None:
        return DyadicRational(num)
    den = _bounded_int(den_text, text)
    if den <= 0 or den & (den - 1):
        raise NotDyadic(f"denominator {den} is not a positive power of two")
    return DyadicRational(num, 1 - den.bit_length())


def format_dyadic(d: DyadicRational) -> str:
    """Canonical literal.  It reads back through parse_dyadic only within
    MAX_LITERAL_DIGITS and MAX_POW2_EXPONENT, which bound input alone: a
    printed value, such as an entry of a normalize map, can exceed them."""
    if d.exp >= 0:
        return str(d.num << d.exp)
    k = -d.exp
    if k <= 10:
        return f"{d.num}/{1 << k}"
    return f"{d.num}/2^{k}"


def parse_hat(text: str) -> Hat:
    """Parse "T i j m" (representative) or "TT i j m" (i parity free)."""
    tokens = text.split()
    if len(tokens) != 4 or tokens[0] not in ("T", "TT"):
        raise ParseError(f"malformed hat literal {text!r}")
    hat = Hat(*(_bounded_int(t, text) for t in tokens[1:]))
    if tokens[0] == "T" and not hat.is_representative:
        raise InvalidHat(f"representative hat literal needs odd i, got {hat.i}")
    return hat


def parse_triangle(text: str) -> Triangle:
    """Parse three comma-joined vertex pairs, e.g. "0,0 1,3 2,0"."""
    parts = text.split()
    if len(parts) != 3:
        raise ParseError(f"triangle literal needs three vertices, got {text!r}")
    points = []
    for part in parts:
        coords = part.split(",")
        if len(coords) != 2:
            raise ParseError(f"vertex {part!r} is not an x,y pair")
        points.append(Point2(parse_dyadic(coords[0]), parse_dyadic(coords[1])))
    return Triangle(tuple(points))


def parse_shape(text: str) -> Triangle:
    """Parse a hat literal (as its triangle) or a triangle literal."""
    head = text.split(maxsplit=1)
    if head and head[0] in ("T", "TT"):
        return parse_hat(text).triangle()
    return parse_triangle(text)


# ---------------------------------------------------------------- output


def _emit(args, payload: dict, lines: list[str], quiet: list[str]) -> None:
    """Print payload as one line of JSON under --json, quiet under --quiet,
    and lines otherwise.  json is imported in the JSON branch, so a command
    run without --json never loads it."""
    if args.json:
        import json

        print(json.dumps(payload))
        return
    for line in quiet if args.quiet else lines:
        print(line)


def map_json(f: AffineMap) -> dict:
    """The map's entries as literals; its views are each read once."""
    lin, shift = f.linear, f.translation
    return {
        "linear": [
            [format_dyadic(lin.a), format_dyadic(lin.b)],
            [format_dyadic(lin.c), format_dyadic(lin.d)],
        ],
        "translation": [format_dyadic(shift.x), format_dyadic(shift.y)],
    }


def _format_map(shape: dict) -> str:
    """One text line for a map_json result."""
    (a, b), (c, d) = shape["linear"]
    x, y = shape["translation"]
    return f"linear [[{a}, {b}], [{c}, {d}]] translation ({x}, {y})"


# ---------------------------------------------------------------- subcommands


def _witness_holds(witness: AffineMap, tri: Triangle, roles, h: Hat) -> bool:
    """Whether witness is a unit map sending vertices roles[0], [1], [2] of
    tri to (0, 0), (i, j), (m, 0) of h: its integers re-applied to tri's at
    the least exponent k, in no code shared with the solve."""
    ((a, b, c, d), e), ((x, y), s) = witness._scaled
    n, t = tri.scaled_coords()
    k = min(e + t, s, 0)
    for r, target in zip(roles, ((0, 0), (h.i, h.j), (h.m, 0))):
        px, py = n[2 * r], n[2 * r + 1]
        image = (((a * px + b * py) << (e + t - k)) + (x << (s - k)),
                 ((c * px + d * py) << (e + t - k)) + (y << (s - k)))
        if image != (target[0] << -k, target[1] << -k):
            return False
    return witness.is_unit()


def _cmd_normalize(args) -> int:
    tri = parse_shape(args.shape)
    payload, lines, quiet = [], [], []
    ok = "  ok" if args.verify else ""
    triples = role_triples(tri)
    for roles in ROLE_ORDERS:
        label = perm_label(roles)
        result = _normalized(tri, roles, triples)
        h, witness = result.hat, result.witness
        if args.verify and not _witness_holds(witness, tri, roles, h):
            raise InconsistencyError(f"witness for roles {label} failed verification")
        shape = map_json(witness)
        payload.append({
            "roles": label,
            "hat": h._asdict(),
            # hat_of's i is already odd in 1..2j-1: the hat is its own triple
            "triple": list(h),
            "map": shape,
        })
        quiet.append(f"{label}: T {h.i} {h.j} {h.m}")
        lines.append(f"{quiet[-1]}  {_format_map(shape)}{ok}")
    _emit(args, {"results": payload}, lines, quiet)
    return 0


def _cmd_aut(args) -> int:
    numbers = (args.i, args.j, args.m)
    literal = " ".join(numbers)
    group = automorphism_group(Hat(*(_bounded_int(n, literal) for n in numbers)))
    shapes = [(perm, map_json(witness)) for perm, witness in group.witnesses]
    payload = {
        "group": group.tag,
        "order": group.order,
        "witnesses": [{"perm": perm, **shape} for perm, shape in shapes],
    }
    lines = [f"{group.tag} (order {group.order})"]
    lines += [f"  {perm}  {_format_map(shape)}" for perm, shape in shapes]
    _emit(args, {"aut": payload}, lines, [group.tag])
    return 0


def _cmd_iso(args) -> int:
    result = isomorphic(parse_shape(args.first), parse_shape(args.second))
    shape = map_json(result.witness) if result.witness else None
    payload = {"result": result.isomorphic, "case": result.case, "map": shape}
    if result.isomorphic:
        lines = [f"isomorphic (case {result.case})", f"  {_format_map(shape)}"]
    else:
        lines = ["not isomorphic"]
    _emit(args, {"iso": payload}, lines, [])
    return 0 if result.isomorphic else 3


def _cmd_canon(args) -> int:
    triple = canonical_form(parse_shape(args.shape))
    lines = [f"{triple.i} {triple.j} {triple.m}"]
    _emit(args, {"triple": list(triple)}, lines, lines)
    return 0


def _cmd_census(args) -> int:
    report = census(args.jmax, args.mmax, workers=args.par)
    payload = {
        "jmax": report.j_max,
        "mmax": report.m_max,
        "ok": report.ok,
        "rows": [
            {
                "j": row.j,
                "m": row.m,
                "pointed": row.pointed_classes,
                "classes": row.isomorphism_classes,
                "aut": row.aut_counts,
                "orbit_ok": row.orbit_ok,
            }
            for row in report.rows
        ],
    }
    header = f"{'j':>4} {'m':>4} {'pointed':>8} {'classes':>8} " \
             f"{'Trivial':>8} {'C2':>5} {'C3':>5} {'S3':>5}  orbit"
    lines = [header]
    for row in report.rows:
        counts = row.aut_counts
        lines.append(
            f"{row.j:>4} {row.m:>4} {row.pointed_classes:>8} "
            f"{row.isomorphism_classes:>8} {counts['Trivial']:>8} "
            f"{counts['C2']:>5} {counts['C3']:>5} {counts['S3']:>5}  "
            f"{'ok' if row.orbit_ok else 'FAIL'}"
        )
    verdict = f"census {'ok' if report.ok else 'FAILED'}: {len(report.rows)} cells"
    lines.append(verdict)
    _emit(args, {"census": payload}, lines, [verdict])
    return 0 if report.ok else 1


def _cmd_render(args) -> int:
    svg = render_svg(parse_shape(args.shape))
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as err:
        print(f"error: cannot write {args.out}: {err.strerror or err}", file=sys.stderr)
        return 6
    _emit(args, {"render": {"out": args.out}}, [f"wrote {args.out}"], [])
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    common.add_argument("--quiet", action="store_true",
                        help="suppress everything but the essential answer")

    parser = argparse.ArgumentParser(
        prog="dyhat",
        description="Exact classification of triangles over the dyadic rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", parents=[common],
                       help="representative hats for all six vertex roles")
    p.add_argument("shape", help='hat or triangle literal, e.g. "0,0 1,3 2,0"')
    p.add_argument("--verify", action="store_true",
                   help="re-apply each witness map and check the vertices")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("aut", parents=[common],
                       help="automorphism group of a representative hat")
    p.add_argument("i")
    p.add_argument("j")
    p.add_argument("m")
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("iso", parents=[common],
                       help="decide isomorphism of two hats or triangles")
    p.add_argument("first", help='hat "T i j m" / "TT i j m" or triangle literal')
    p.add_argument("second")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("canon", parents=[common],
                       help="canonical encoding triple of a hat or triangle")
    p.add_argument("shape", help="hat or triangle literal")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("census", parents=[common],
                       help="sweep all representative hats up to bounds")
    p.add_argument("--jmax", type=_ascii_int, required=True)
    p.add_argument("--mmax", type=_ascii_int, required=True)
    p.add_argument("--par", type=_ascii_int, default=1, metavar="N",
                   help="number of parallel workers (at most one per CPU); "
                        "the pool pays only on large grids, such as 63x63")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("render", parents=[common],
                       help="draw a hat or triangle as SVG")
    p.add_argument("shape", help="hat or triangle literal")
    p.add_argument("--out", required=True, help="output .svg path")
    p.set_defaults(func=_cmd_render)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv.count("--") > 1:
            # argparse in Python 3.11 drops a second "--" and can hand a
            # positional an empty list in place of a value ("aut -- 1 -- 3")
            parser.error("'--' may be given at most once")
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse handles usage errors and --help
        return int(exit_.code or 0)
    # a hat parameter or map entry from literals within MAX_LITERAL_DIGITS
    # can pass the 4,300 digits that int-to-str allows by default, so the
    # command prints without that limit; _bounded_int caps what it reads
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except InconsistencyError as err:
        print(f"internal inconsistency: {err}", file=sys.stderr)
        return 5
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush
        # at interpreter exit cannot fail again, and end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 6
    sys.exit(code)
