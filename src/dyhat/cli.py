"""Command line front end.

One query per invocation.  Exit codes: 0 success (for iso: isomorphic),
1 failed verification, 2 usage error, 3 not isomorphic, 4 domain error
(malformed or oversized literal, non-dyadic value, degenerate triangle,
even j, bad bounds), 5 internal inconsistency (two cross-checked routes
disagreed: a defect in dyhat, not in the input), each with a diagnostic
naming the violated invariant, 6 output could not be written (render's
--out file, with a one-line diagnostic, or stdout closed by its reader, as
in "dyhat census ... | head -1", silently).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import permutations

from .classify import automorphism_group, census, isomorphic, isomorphic_hats
from .dyadic import DyadicRational
from .errors import DomainError, InconsistencyError, InvalidHat, NotDyadic, ParseError
from .geometry import AffineMap, Point2, Triangle
from .hats import EncodingTriple, Hat, canonical_form, normalize, pointed_canonical
from .oracle import perm_label
from .render import render_svg

_LITERAL = re.compile(r"^(-?\d+)(?:/(.+))?$")
_POW2 = re.compile(r"^2\^(\d+)$")

#: Longest digit string a literal may hold (numerator, denominator or k).
MAX_LITERAL_DIGITS = 1000
#: Largest k in a "digits/2^k" literal.
MAX_POW2_EXPONENT = 4096


def _bounded_int(digits: str) -> int:
    """int(digits), refused before conversion when there are too many digits."""
    count = len(digits.lstrip("-"))
    if count > MAX_LITERAL_DIGITS:
        raise ParseError(
            f"literal has a {count}-digit part; at most "
            f"{MAX_LITERAL_DIGITS} digits are allowed"
        )
    return int(digits)


def parse_dyadic(text: str) -> DyadicRational:
    """Parse "[-]digits", "[-]digits/denom" or "[-]digits/2^k".

    Digit strings longer than MAX_LITERAL_DIGITS and k above
    MAX_POW2_EXPONENT are rejected with ParseError.
    """
    match = _LITERAL.match(text.strip())
    if not match:
        raise ParseError(f"malformed dyadic literal {text!r}")
    num = _bounded_int(match.group(1))
    den_text = match.group(2)
    if den_text is None:
        return DyadicRational(num)
    pow2 = _POW2.match(den_text)
    if pow2:
        k = _bounded_int(pow2.group(1))
        if k > MAX_POW2_EXPONENT:
            raise ParseError(
                f"exponent 2^{k} exceeds the limit 2^{MAX_POW2_EXPONENT}"
            )
        return DyadicRational(num, -k)
    if not den_text.isdecimal():
        raise ParseError(f"malformed denominator in {text!r}")
    den = _bounded_int(den_text)
    if den <= 0 or den & (den - 1):
        raise NotDyadic(f"denominator {den} is not a positive power of two")
    return DyadicRational(num, 1 - den.bit_length())


def format_dyadic(d: DyadicRational) -> str:
    """Canonical literal; round-trips through parse_dyadic."""
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
    try:
        i, j, m = (int(t) for t in tokens[1:])
    except ValueError:
        raise ParseError(f"hat parameters must be integers in {text!r}") from None
    hat = Hat(i, j, m)
    if tokens[0] == "T" and not hat.is_representative:
        raise InvalidHat(f"representative hat literal needs odd i, got {i}")
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


def _is_hat_literal(text: str) -> bool:
    head = text.split(maxsplit=1)
    return bool(head) and head[0] in ("T", "TT")


def parse_shape(text: str) -> Triangle:
    """Parse a hat literal (as its triangle) or a triangle literal."""
    return parse_hat(text).triangle() if _is_hat_literal(text) else parse_triangle(text)


# ---------------------------------------------------------------- JSON shapes


def _print_json(payload: dict) -> None:
    """Print payload as one line of JSON.  json is imported here, so a
    command run without --json never loads it."""
    import json

    print(json.dumps(payload))


def hat_json(h: Hat) -> dict:
    return {"i": h.i, "j": h.j, "m": h.m}


def triple_json(t: EncodingTriple) -> list[int]:
    return [t.i, t.j, t.m]


def map_json(f: AffineMap) -> dict:
    lin = f.linear
    return {
        "linear": [
            [format_dyadic(lin.a), format_dyadic(lin.b)],
            [format_dyadic(lin.c), format_dyadic(lin.d)],
        ],
        "translation": [
            format_dyadic(f.translation.x),
            format_dyadic(f.translation.y),
        ],
    }


def aut_json(group) -> dict:
    return {
        "group": group.tag,
        "order": group.order,
        "witnesses": [
            {"perm": perm, **map_json(witness)} for perm, witness in group.witnesses
        ],
    }


def _format_map(f: AffineMap) -> str:
    lin = f.linear
    a, b, c, d = (format_dyadic(v) for v in (lin.a, lin.b, lin.c, lin.d))
    t = f.translation
    return (
        f"linear [[{a}, {b}], [{c}, {d}]] "
        f"translation ({format_dyadic(t.x)}, {format_dyadic(t.y)})"
    )


# ---------------------------------------------------------------- subcommands


def _cmd_normalize(args) -> int:
    if args.canonical:
        return _cmd_canon(args)
    tri = parse_shape(args.shape)

    rows = []
    for roles in permutations((0, 1, 2)):
        label = perm_label(roles)
        result = normalize(tri, roles)
        verified = None
        if args.verify:
            images = [result.witness(tri.vertices[r]) for r in roles]
            h = result.hat
            targets = [Point2.of(0, 0), Point2.of(h.i, h.j), Point2.of(h.m, 0)]
            verified = images == targets and result.witness.is_unit()
            if not verified:
                print(f"error: witness for roles {label} failed verification",
                      file=sys.stderr)
                return 1
        rows.append((label, result, verified))

    if args.json:
        payload = [
            {
                "roles": label,
                "hat": hat_json(res.hat),
                "triple": triple_json(pointed_canonical(res.hat)),
                "map": map_json(res.witness),
            }
            for label, res, _ in rows
        ]
        _print_json({"results": payload})
        return 0
    for label, res, verified in rows:
        h = res.hat
        line = f"{label}: T {h.i} {h.j} {h.m}"
        if not args.quiet:
            line += f"  {_format_map(res.witness)}"
            if verified:
                line += "  ok"
        print(line)
    return 0


def _cmd_aut(args) -> int:
    group = automorphism_group(Hat(args.i, args.j, args.m))
    if args.json:
        _print_json({"aut": aut_json(group)})
        return 0
    if args.quiet:
        print(group.tag)
        return 0
    print(f"{group.tag} (order {group.order})")
    for perm, witness in group.witnesses:
        print(f"  {perm}  {_format_map(witness)}")
    return 0


def _cmd_iso(args) -> int:
    first, second = args.first, args.second
    if _is_hat_literal(first) and _is_hat_literal(second):
        result = isomorphic_hats(parse_hat(first), parse_hat(second))
    else:
        result = isomorphic(parse_shape(first), parse_shape(second))

    if args.json:
        payload = {
            "result": result.isomorphic,
            "case": result.case,
            "map": map_json(result.witness) if result.witness else None,
        }
        _print_json({"iso": payload})
    elif result.isomorphic:
        if not args.quiet:
            print(f"isomorphic (case {result.case})")
            print(f"  {_format_map(result.witness)}")
    elif not args.quiet:
        print("not isomorphic")
    return 0 if result.isomorphic else 3


def _cmd_canon(args) -> int:
    triple = canonical_form(parse_shape(args.shape))
    if args.json:
        _print_json({"triple": triple_json(triple)})
    else:
        print(f"{triple.i} {triple.j} {triple.m}")
    return 0


def _cmd_census(args) -> int:
    report = census(args.jmax, args.mmax, workers=args.par)
    if args.json:
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
        _print_json({"census": payload})
        return 0 if report.ok else 1
    if not args.quiet:
        header = f"{'j':>4} {'m':>4} {'pointed':>8} {'classes':>8} " \
                 f"{'Trivial':>8} {'C2':>5} {'C3':>5} {'S3':>5}  orbit"
        print(header)
        for row in report.rows:
            counts = row.aut_counts
            print(
                f"{row.j:>4} {row.m:>4} {row.pointed_classes:>8} "
                f"{row.isomorphism_classes:>8} {counts['Trivial']:>8} "
                f"{counts['C2']:>5} {counts['C3']:>5} {counts['S3']:>5}  "
                f"{'ok' if row.orbit_ok else 'FAIL'}"
            )
    verdict = "ok" if report.ok else "FAILED"
    print(f"census {verdict}: {len(report.rows)} cells")
    return 0 if report.ok else 1


def _cmd_render(args) -> int:
    svg = render_svg(parse_shape(args.shape))
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as err:
        print(f"error: cannot write {args.out}: {err.strerror or err}", file=sys.stderr)
        return 6
    if args.json:
        _print_json({"render": {"out": args.out}})
    elif not args.quiet:
        print(f"wrote {args.out}")
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
    p.add_argument("--canonical", action="store_true",
                   help="print only the canonical triple")
    p.add_argument("--verify", action="store_true",
                   help="re-apply each witness map and check the vertices")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("aut", parents=[common],
                       help="automorphism group of a representative hat")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.add_argument("m", type=int)
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
    p.add_argument("--jmax", type=int, required=True)
    p.add_argument("--mmax", type=int, required=True)
    p.add_argument("--par", type=int, default=1, metavar="N",
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse handles usage errors and --help
        return int(exit_.code or 0)
    try:
        return args.func(args)
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except InconsistencyError as err:
        print(f"internal inconsistency: {err}", file=sys.stderr)
        return 5


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
