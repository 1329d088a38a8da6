"""Plane geometry and the Fraction routes that the tests check dyhat with.

dyhat decides isomorphism from hat parameters and never needs these.  The
tests use them to state the paper's invariants (area, side types, boundary
triples, the pointed class of a hat of either parity) and to compare the
integer arithmetic with stdlib Fraction.  A map is applied, composed and
tested for being a unit here on Fraction, read off its linear and
translation views, and fraction_solve solves a correspondence by Cramer's
rule on Fraction; oracle_aut_count counts automorphisms with it.

solve_congruence, with its Residue and NoSolution, solves a linear
congruence by modular inversion, as dyhat's isomorphism criteria once did;
the tests check those criteria against it.  closed_form_triples builds a
hat's encoding triples from the paper's formulas with it, and the tests
check hats.role_triples against it.  hat_by_inverse is the hat reduction
with the inverse of 2**v modulo j taken outright, as it once was, and its
Bezout row from egcd, the textbook loop of divisions.  val2 and odd_part,
which dyhat takes inline, are counted here off binary digits.

The four automorphism criteria (aut_fix_A, aut_fix_B, aut_fix_C,
aut_cycle), with odd_gcd and its BothZero, decided automorphism groups
before dyhat ran its six isomorphism case tests on a hat and itself;
criteria_row reads a hat's group off them, and the tests check
classify.automorphism_group against it.

parse_literal reads the README's literal grammar (dyadic, hat and
triangle literals) character by character, with no regular expression and
no int() on text it has not checked; the tests check cli.parse_dyadic,
cli.parse_shape and cli.format_dyadic against it.

This module imports no decision route of dyhat (tests/test_classify.py
parses it to check that), so each reference checks them from outside.
"""
import math
from collections import namedtuple
from fractions import Fraction
from math import gcd

from dyhat.dyadic import DyadicRational, Record, common_scale
from dyhat.errors import DomainError, InvalidHat, NotDyadic
from dyhat.geometry import AffineMap, Matrix2, Point2, Triangle
from dyhat.hats import EncodingTriple, Hat
from dyhat.oracle import CORRESPONDENCES, perm_label

D = DyadicRational
HALF = D(1, -1)


def val2(n: int) -> int:
    """2-adic valuation of a nonzero integer, counted off its binary digits;
    ValueError at 0."""
    if n == 0:
        raise ValueError("val2 is undefined at 0")
    digits = bin(n)
    return len(digits) - len(digits.rstrip("0"))


def odd_part(n: int) -> int:
    """n with all factors of two removed, sign preserved."""
    return n >> val2(n)


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid by the textbook loop of divisions: (g, x, y) with
    g = gcd(a, b) >= 0 and a*x + b*y = g.  Each step keeps
    a0*x + b0*y = a and a0*x1 + b0*y1 = b for the inputs a0, b0."""
    x, y, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x, x1 = x1, x - q * x1
        y, y1 = y1, y - q * y1
    return (a, x, y) if a >= 0 else (-a, -x, -y)


def from_fraction(f: Fraction) -> DyadicRational:
    den = f.denominator
    if den & (den - 1):
        raise NotDyadic(f"{f} has a denominator that is not a power of two")
    return D(f.numerator, 1 - den.bit_length())


def affine(a, b, c, d, tx=0, ty=0) -> AffineMap:
    """p |-> [[a, b], [c, d]] p + (tx, ty), from ints or DyadicRationals."""
    entries = (v if isinstance(v, D) else D(v) for v in (a, b, c, d))
    return AffineMap(Matrix2(*entries), Point2(tx, ty))


IDENTITY = affine(1, 0, 0, 1)


def map_fractions(f: AffineMap) -> tuple[Fraction, ...]:
    """(a, b, c, d, tx, ty) of f as Fractions, read off its views."""
    return tuple(v.to_fraction() for v in (*f.linear, *f.translation))


def det(f: AffineMap) -> DyadicRational:
    """The determinant ad - bc of f's linear part, computed on Fraction."""
    a, b, c, d, _, _ = map_fractions(f)
    return from_fraction(a * d - b * c)


def is_unit(f: AffineMap) -> bool:
    """Whether det(f) is +-2**k, on Fraction: a dyadic determinant is a unit
    exactly when its numerator is a power of two up to sign."""
    n = abs(det(f).to_fraction().numerator)
    return n != 0 and n & (n - 1) == 0


def compose(f: AffineMap, g: AffineMap) -> tuple[Fraction, ...]:
    """map_fractions of f after g, composed on Fraction."""
    a, b, c, d, x, y = map_fractions(f)
    p, q, r, u, gx, gy = map_fractions(g)
    return (a * p + b * r, a * q + b * u, c * p + d * r, c * q + d * u,
            a * gx + b * gy + x, c * gx + d * gy + y)


def _apply_fractions(entries: tuple[Fraction, ...], p: Point2) -> Point2:
    """The image of p under the map with map_fractions entries, on Fraction."""
    a, b, c, d, tx, ty = entries
    x, y = p.x.to_fraction(), p.y.to_fraction()
    return Point2(from_fraction(a * x + b * y + tx), from_fraction(c * x + d * y + ty))


def apply(f: AffineMap, p: Point2) -> Point2:
    """f(p), computed on Fraction."""
    return _apply_fractions(map_fractions(f), p)


def transformed(t: Triangle, f: AffineMap) -> Triangle:
    """The triangle with vertices f(a), f(b), f(c), applied on Fraction;
    f's entries are read once for the three."""
    entries = map_fractions(f)
    return Triangle(tuple(_apply_fractions(entries, v) for v in t.vertices))


def reordered(t: Triangle, order: tuple[int, int, int]) -> Triangle:
    """The triangle with vertices t.vertices[order[0]], [order[1]],
    [order[2]], built from t's integers in that order."""
    ints, e = t.scaled_coords()
    return Triangle.from_scaled([ints[2 * k + c] for k in order for c in (0, 1)], e)


def weighted_mean(a: Point2, b: Point2, r: DyadicRational) -> Point2:
    """The affine combination a*(1-r) + b*r."""
    return Point2(a.x * (1 - r) + b.x * r, a.y * (1 - r) + b.y * r)


def midpoint(a: Point2, b: Point2) -> Point2:
    return weighted_mean(a, b, HALF)


def cross(o: Point2, p: Point2, q: Point2) -> DyadicRational:
    """Cross product of p - o and q - o."""
    return (p.x - o.x) * (q.y - o.y) - (p.y - o.y) * (q.x - o.x)


def twice_area(t) -> DyadicRational:
    return abs(cross(*t.vertices))


class BothZero(DomainError):
    """A gcd-style operation was applied to (0, 0)."""


def odd_gcd(a: int, b: int) -> int:
    """Largest odd common divisor of a and b (not both zero)."""
    g = math.gcd(a, b)
    if g == 0:
        raise BothZero("odd_gcd(0, 0) is undefined")
    return odd_part(g)


def segment_type(p: Point2, q: Point2) -> int:
    """Odd gcd of the integers of q - p once their common power of two is
    cleared; BothZero when p == q."""
    (a, b), _ = common_scale(q.x - p.x, q.y - p.y)
    return odd_gcd(a, b)


def boundary_type(t) -> tuple[int, int, int]:
    """Side types of the edges (AB, BC, CA)."""
    a, b, c = t.vertices
    return segment_type(a, b), segment_type(b, c), segment_type(c, a)


def is_valid_boundary_triple(r: int, s: int, t: int) -> bool:
    """Whether the three pairwise gcds agree (realizable boundary triples)."""
    return gcd(r, s) == gcd(s, t) == gcd(r, t)


def boundary_types_equivalent(u, v) -> bool:
    """Equality up to cyclic rotation and orientation reversal."""
    r, s, t = u
    forward = {(r, s, t), (s, t, r), (t, r, s)}
    return tuple(v) in forward or tuple(reversed(v)) in forward


def fraction_solve(src, dst, perm):
    """Reference correspondence solver: Cramer's rule over Fraction.

    The unique affine map over Q sending vertex k of src to vertex perm[k]
    of dst, or None unless every entry is dyadic and the determinant is
    +-2**k.
    """
    s = [(p.x.to_fraction(), p.y.to_fraction()) for p in src.vertices]
    dst_vertices = dst.vertices
    t = [(p.x.to_fraction(), p.y.to_fraction()) for p in (dst_vertices[k] for k in perm)]
    (ax, ay), (bx, by) = s[0], t[0]
    u1x, u1y = s[1][0] - ax, s[1][1] - ay
    u2x, u2y = s[2][0] - ax, s[2][1] - ay
    w1x, w1y = t[1][0] - bx, t[1][1] - by
    w2x, w2y = t[2][0] - bx, t[2][1] - by

    det = u1x * u2y - u1y * u2x
    a, b = (w1x * u2y - w2x * u1y) / det, (w2x * u1x - w1x * u2x) / det
    c, d = (w1y * u2y - w2y * u1y) / det, (w2y * u1x - w1y * u2x) / det
    entries = (a, b, c, d, bx - a * ax - b * ay, by - c * ax - d * ay)
    if any(v.denominator & (v.denominator - 1) for v in entries):
        return None
    entries = [from_fraction(v) for v in entries]
    solved = AffineMap(Matrix2(*entries[:4]), Point2(*entries[4:]))
    return solved if is_unit(solved) else None


def oracle_aut_count(t) -> int:
    """Number of self-correspondences realized by unit maps (1, 2, 3 or 6),
    each solved by fraction_solve."""
    return sum(fraction_solve(t, t, c.perm) is not None for c in CORRESPONDENCES)


def validate_encoding_triple(i, j, m) -> None:
    """EncodingTriple's validation as three checks in a row: j, then m, each
    an odd positive int, then i an odd int in 1..2j-1 (a bool is not an
    int here).  Raises InvalidHat with the first failed check's message, as
    the constructor must."""
    for value, name in ((j, "j"), (m, "m")):
        if type(value) is not int or value <= 0 or value % 2 == 0:
            raise InvalidHat(f"{name} must be an odd positive integer, got {value!r}")
    if type(i) is not int or i % 2 == 0 or not 1 <= i <= 2 * j - 1:
        raise InvalidHat(f"i must be odd in 1..{2 * j - 1}, got {i!r}")


def pointed_canonical(h: Hat) -> EncodingTriple:
    """Reduce i to the odd representative of its pointed class in 1..2j-1.

    Odd i moves by multiples of 2j; even i passes through i + j first.
    """
    two_j = 2 * h.j
    if h.is_representative:
        return EncodingTriple(h.i % two_j, h.j, h.m)
    return EncodingTriple((h.i + h.j) % two_j, h.j, h.m)


class NoSolution(DomainError):
    """The linear congruence has no solution."""


class Residue(Record, namedtuple("Residue", "value modulus")):
    """A residue class value + modulus*Z with an odd positive modulus; a
    Record, validated on every construction route."""

    __slots__ = ()

    def __new__(cls, value: int, modulus: int) -> "Residue":
        if modulus <= 0 or modulus % 2 == 0:
            raise ValueError("modulus must be an odd positive integer")
        if not 0 <= value < modulus:
            raise ValueError("residue value must lie in [0, modulus)")
        return tuple.__new__(cls, (value, modulus))


def solve_congruence(a: int, b: int, n: int) -> Residue:
    """Solve a*x = b (mod n) for odd positive n.

    Returns the solution class as a Residue mod n // gcd(a, n); raises
    NoSolution when gcd(a, n) does not divide b.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError("modulus must be an odd positive integer")
    g = math.gcd(a, n)
    if b % g:
        raise NoSolution(f"{a}*x = {b} (mod {n}) has no solution")
    m = n // g
    x = pow(a // g, -1, m) * ((b // g) % m) % m
    return Residue(x, m)


def _exchanged(h: Hat, case: str) -> tuple[int, int, int]:
    """(anchor, l, n) of the role-exchanging case c to f from h = (i, j, m),
    by the paper's formulas: n = gcd(side, j), l = m*j/n, and the class of
    k is anchor mod l, with anchor = x*m (c, d) or n - x*m (e, f), where x
    solves side*x = n (mod j) and side is i (c, e) or m - i (d, f)."""
    i, j, m = h
    side = i if case in "ce" else m - i
    n = gcd(side, j)
    x = solve_congruence(side, n, j).value
    return (x * m if case in "cd" else n - x * m), m * j // n, n


def iso_case_by_congruence(h1: Hat, h2: Hat, case: str) -> bool:
    """classify.iso_case for the cases c to f that exchange roles, with the
    class of k found by solve_congruence (_exchanged)."""
    k, l, n = h2
    anchor, *forced = _exchanged(h1, case)
    return [l, n] == forced and (k - anchor) % l == 0


def _odd_lift(r: int, j: int) -> int:
    """The odd residue mod 2j that is r mod j."""
    r %= j
    return r if r % 2 else r + j


def closed_form_triples(h: Hat) -> set[tuple[int, int, int]]:
    """The (i, j, m) of h's encoding triples over its six role orders, from
    the paper's formulas and no coordinates: (i, j, m), (m - i, j, m) and
    the (anchor, l, n) of each role-exchanging case (_exchanged), each
    first entry lifted to an odd residue."""
    i, j, m = h
    triples = {(_odd_lift(i, j), j, m), (_odd_lift(m - i, j), j, m)}
    for case in "cdef":
        k, l, n = _exchanged(h, case)
        triples.add((_odd_lift(k, l), l, n))
    return triples


def hat_by_inverse(tri: Triangle, roles: tuple[int, int, int]):
    """((i, j, m), v): the i, j, m of hat_of(tri, roles), with the residue
    divided by 2**v modulo j as r * pow(2, -v, j), and the v of the base
    edge from vertex roles[0] to vertex roles[2]."""
    n, _ = tri.scaled_coords()
    (ox, oy), (ax, ay), (bx, by) = ((n[2 * k], n[2 * k + 1]) for k in roles)
    odd = abs(odd_part((bx - ox) * (ay - oy) - (by - oy) * (ax - ox)))
    g, s, t = egcd(bx - ox, by - oy)
    v = val2(g)
    j = odd // (g >> v)
    r = (s * (ax - ox) + t * (ay - oy)) * pow(2, -v, j) % j
    return (r if r % 2 else r + j, j, g >> v), v


def _require_representative(h: Hat) -> None:
    if not h.is_representative:
        raise InvalidHat(f"criteria require a representative hat (odd i), got i={h.i}")


def aut_fix_B(h: Hat) -> bool:
    """Automorphism fixing the apex and swapping the base vertices: j | 2i - m."""
    _require_representative(h)
    return (2 * h.i - h.m) % h.j == 0


def aut_fix_A(h: Hat) -> bool:
    """Automorphism fixing the origin: m | i, m | j and mj | m*m - i*i."""
    _require_representative(h)
    i, j, m = h.i, h.j, h.m
    return i % m == 0 and j % m == 0 and (m * m - i * i) % (m * j) == 0

def aut_fix_C(h: Hat) -> bool:
    """Automorphism fixing (m, 0); needs m | i, m | j and k'^2 = 1 (mod l')
    for k' = (m - i + j)/m, l' = j/m."""
    _require_representative(h)
    i, j, m = h.i, h.j, h.m
    if i % m or j % m:
        return False
    k = (m - i + j) // m
    l = j // m
    return (k * k - 1) % l == 0


def aut_cycle(h: Hat) -> bool:
    """Order-3 automorphism; needs boundary (m, m, m) and l | k*k - k + 1
    for k = i/m, l = j/m."""
    _require_representative(h)
    i, j, m = h.i, h.j, h.m
    # the side types of (0,0), (i,j), (m,0) are (odd_gcd(i, j), odd_gcd(m - i, j), m)
    if odd_gcd(i, j) != m or odd_gcd(m - i, j) != m:
        return False
    k = i // m
    l = j // m
    return (k * k - k + 1) % l == 0


#: The six subgroups of S3, keyed by the criteria's outcome (aut_fix_A,
#: aut_fix_B, aut_fix_C, aut_cycle): each row is the group's tag and the
#: oracle.CORRESPONDENCES cases its elements realize, in that order, "a"
#: the identity.
GROUP_OF_CRITERIA = {
    (False, False, False, False): ("Trivial", "a"),
    (True, False, False, False): ("C2", "ac"),
    (False, True, False, False): ("C2", "ab"),
    (False, False, True, False): ("C2", "af"),
    (False, False, False, True): ("C3", "ade"),
    (True, True, True, True): ("S3", "abcdef"),
}


def criteria_row(h: Hat) -> tuple[str, str, tuple[str, ...]]:
    """(tag, cases, labels) of h's automorphism group by the four criteria:
    the GROUP_OF_CRITERIA row of their outcome and the witness label of each
    of its cases, as automorphism_group lists them.  A KeyError when the
    outcome is no row."""
    tag, cases = GROUP_OF_CRITERIA[(aut_fix_A(h), aut_fix_B(h), aut_fix_C(h), aut_cycle(h))]
    return tag, cases, tuple(perm_label(c.perm) for c in CORRESPONDENCES if c.case in cases)


class Refused(DomainError):
    """parse_literal's refusal of a text outside the literal grammar."""


#: The README's caps: digits in one number of a literal, and k in "2^k".
LITERAL_DIGITS = 1000
POW2_EXPONENT = 4096


def _read_int(text: str, at: int, sign: bool) -> tuple[int, int]:
    """(value, end) of the ASCII digits at text[at:], after one "-" when sign
    allows it; Refused when no digit follows or more than LITERAL_DIGITS do."""
    negative = sign and at < len(text) and text[at] == "-"
    at += negative
    value, count = 0, 0
    while at < len(text) and "0" <= text[at] <= "9":
        value = 10 * value + (ord(text[at]) - ord("0"))
        count += 1
        at += 1
    if count == 0 or count > LITERAL_DIGITS:
        raise Refused(f"{count} digits at {at} in {text!r}")
    return (-value if negative else value), at


def _read_dyadic(text: str) -> Fraction:
    """"[-]digits", "[-]digits/digits" (a power of two) or "[-]digits/2^k",
    the whole of text."""
    num, at = _read_int(text, 0, True)
    k = 0
    if at < len(text) and text[at] == "/":
        at += 1
        if text[at:at + 2] == "2^":
            k, at = _read_int(text, at + 2, False)
            if k > POW2_EXPONENT:
                raise Refused(f"2^{k} in {text!r}")
        else:
            den, at = _read_int(text, at, False)
            if den == 0:
                raise Refused(f"denominator 0 in {text!r}")
            while den % 2 == 0:
                den //= 2
                k += 1
            if den != 1:
                raise Refused(f"a denominator that is not a power of two in {text!r}")
    if at != len(text):
        raise Refused(f"{text[at]!r} at {at} in {text!r}")
    return Fraction(num, 1 << k)


def _words(text: str) -> list[str]:
    """text's runs of characters that are not whitespace."""
    words, word = [], ""
    for ch in text + " ":
        if ch.isspace():
            if word:
                words.append(word)
            word = ""
        else:
            word += ch
    return words


def parse_literal(text: str, shape: bool = False):
    """The README literal grammar, read character by character, with no re
    and no int() on text it has not checked.

    Without shape, text is a dyadic literal, surrounding whitespace allowed:
    its value as a Fraction.  With shape, its words split at whitespace, it
    is a hat literal "T i j m" (odd i) or "TT i j m" (any i), with odd
    positive j and m, or three vertices "x,y" of dyadic literals that are
    not collinear: the vertices as a tuple of three (x, y) Fraction pairs.
    Each number holds at most LITERAL_DIGITS digits and k at most
    POW2_EXPONENT; any other text raises Refused.
    """
    words = _words(text)
    if not shape:
        if len(words) != 1:
            raise Refused(f"{len(words)} words in {text!r}")
        return _read_dyadic(words[0])
    if words and words[0] in ("T", "TT"):
        if len(words) != 4:
            raise Refused(f"a hat literal of {len(words)} words: {text!r}")
        params = []
        for word in words[1:]:
            value, end = _read_int(word, 0, True)
            if end != len(word):
                raise Refused(f"hat parameter {word!r} is not an integer")
            params.append(value)
        i, j, m = params
        if j <= 0 or j % 2 == 0 or m <= 0 or m % 2 == 0:
            raise Refused(f"j and m must be odd positive in {text!r}")
        if words[0] == "T" and i % 2 == 0:
            raise Refused(f"a representative hat needs odd i in {text!r}")
        zero = Fraction(0)
        return (zero, zero), (Fraction(i), Fraction(j)), (Fraction(m), zero)
    if len(words) != 3:
        raise Refused(f"a triangle literal of {len(words)} words: {text!r}")
    vertices = []
    for word in words:
        comma = word.find(",")
        if comma < 0 or word.find(",", comma + 1) >= 0:
            raise Refused(f"vertex {word!r} is not an x,y pair")
        vertices.append((_read_dyadic(word[:comma]), _read_dyadic(word[comma + 1:])))
    (ax, ay), (bx, by), (cx, cy) = vertices
    if (bx - ax) * (cy - ay) == (by - ay) * (cx - ax):
        raise Refused(f"collinear vertices in {text!r}")
    return tuple(vertices)
