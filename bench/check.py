"""Answer checks that share no code with dyhat.

Each check returns None when the answer is right and a one-line reason
when it is wrong.  Witness maps are re-applied with fractions.Fraction.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

from gen import odd_twice_area, to_fraction

#: The census grid is j, m <= CENSUS_MAX: 64 cells holding 512 hats.
CENSUS_MAX = 15
CENSUS_CELLS = 64
CENSUS_HATS = 512
#: sha256 of census_rows(census(15, 15)), recorded at the commit that added
#: this benchmark; serial and pooled runs must both reproduce it.
CENSUS_DIGEST = "1ec762c6818666d895e261f915538b4b56436be68a6a63fd3c7262bb2dcbbc8e"

_LITERAL = re.compile(r"^(-?\d+)(?:/(?:2\^(\d+)|(\d+)))?$")


def _power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def parse_literal(text: str) -> Fraction:
    """A dyhat literal ("7", "-3/8" or "5/2^11") as a Fraction."""
    match = _LITERAL.match(text)
    if not match:
        raise ValueError(f"not a dyadic literal: {text!r}")
    num, exp, den = match.groups()
    if exp is not None:
        return Fraction(int(num), 1 << int(exp))
    return Fraction(int(num), int(den or 1))


def witness_from_json(obj: dict) -> tuple:
    """(a, b, c, d, tx, ty) from the CLI's JSON map."""
    (a, b), (c, d) = obj["linear"]
    return tuple(parse_literal(v) for v in (a, b, c, d, *obj["translation"]))


def check_iso(pair, isomorphic: bool, witness) -> str | None:
    """A positive needs a valid unit witness; a negative, unequal areas."""
    if not pair.positive:
        if isomorphic or witness is not None:
            return "non-isomorphic pair reported isomorphic"
        if odd_twice_area(pair.t1) == odd_twice_area(pair.t2):
            return "negative pair with equal odd twice-area"
        return None
    if not isomorphic or witness is None:
        return "isomorphic pair reported non-isomorphic"
    a, b, c, d, tx, ty = witness
    if not all(_power_of_two(v.denominator) for v in witness):
        return "witness has a non-dyadic entry"
    det = abs(a * d - b * c)
    if not (_power_of_two(det.numerator) and _power_of_two(det.denominator)):
        return f"witness determinant {det} is not +-2^k"
    source = [tuple(map(to_fraction, p)) for p in pair.t1]
    target = {tuple(map(to_fraction, p)) for p in pair.t2}
    images = {(a * x + b * y + tx, c * x + d * y + ty) for x, y in source}
    if images != target:
        return "witness does not map t1 onto t2"
    return None


def check_canon(tri, text: str) -> str | None:
    """Output "i j m": odd i in 1..2j-1, odd j and m, jm = odd twice-area."""
    try:
        i, j, m = (int(v) for v in text.split())
    except ValueError:
        return f"malformed canon output {text!r}"
    if j <= 0 or m <= 0 or not j % 2 == m % 2 == i % 2 == 1 or not 1 <= i <= 2 * j - 1:
        return f"canon output {text!r} is not a representative triple"
    if j * m != odd_twice_area(tri):
        return f"canon output {text!r} has the wrong area"
    return None


def census_digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def check_census(rows, ok: bool) -> str | None:
    """rows: (j, m, pointed, classes, Trivial, C2, C3, S3, orbit_ok) each."""
    if not ok:
        return "census report is not ok"
    if len(rows) != CENSUS_CELLS:
        return f"census has {len(rows)} cells, expected {CENSUS_CELLS}"
    for j, m, pointed, _, *groups, orbit_ok in rows:
        if pointed != j or sum(groups) != j or not orbit_ok:
            return f"census cell ({j}, {m}) is wrong"
    if census_digest(rows) != CENSUS_DIGEST:
        return "census rows differ from the recorded digest"
    return None
