"""Seeded inputs for the benchmark, built without dyhat.

A dyadic value is a pair ``(num, exp)`` meaning ``num * 2**exp``; a point is
a pair of values and a triangle a tuple of three points.  Isomorphic
partners are made by applying a unit map (integer shears, a reflection and
power-of-two scalings, then a dyadic translation) and shuffling the vertex
order; non-isomorphic partners are triangles whose twice-area has another
odd part, an invariant of every unit map.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import NamedTuple

#: Size classes: numerator bits, lowest exponent, shear bound, 2^k range.
SMALL = (31, -8, 16, 4)
LARGE = (256, -256, 1 << 16, 64)


def to_fraction(d) -> Fraction:
    num, exp = d
    return Fraction(num << exp) if exp >= 0 else Fraction(num, 1 << -exp)


def to_dyadic(f: Fraction) -> tuple[int, int]:
    """A Fraction with a power-of-two denominator as a pair (num, exp)."""
    return (f.numerator, 1 - f.denominator.bit_length())


def literal(d) -> str:
    """The value in the dyhat literal grammar, e.g. "-3/2^4"."""
    num, exp = d
    return str(num << exp) if exp >= 0 else f"{num}/2^{-exp}"


def triangle_literal(tri) -> str:
    return " ".join(f"{literal(x)},{literal(y)}" for x, y in tri)


def odd_part(n: int) -> int:
    n = abs(n)
    return n >> ((n & -n).bit_length() - 1)


def _twice_area(tri) -> Fraction:
    (ax, ay), (bx, by), (cx, cy) = (tuple(map(to_fraction, p)) for p in tri)
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def odd_twice_area(tri) -> int:
    """Odd part of twice the area; unit maps multiply the area by 2^k."""
    return odd_part(_twice_area(tri).numerator)


def _value(rng: random.Random, size) -> tuple[int, int]:
    bits, low_exp = size[0], size[1]
    return (rng.getrandbits(bits) - (1 << (bits - 1)), rng.randint(low_exp, 0))


def random_triangle(rng: random.Random, size) -> tuple:
    while True:
        tri = tuple((_value(rng, size), _value(rng, size)) for _ in range(3))
        if _twice_area(tri):
            return tri


def random_unit_map(rng: random.Random, size):
    """(a, b, c, d, tx, ty) as Fractions, with det = +-2^k by construction.

    The linear part is a product of integer shears, perhaps a reflection,
    and powers of two, applied as row operations.
    """
    _, _, shear, scale = size
    a, b, c, d = map(Fraction, (1, 0, 0, 1))
    for _ in range(rng.randint(2, 4)):
        s = rng.randint(-shear, shear)
        if rng.random() < 0.5:
            a, b = a + s * c, b + s * d
        else:
            c, d = c + s * a, d + s * b
    if rng.random() < 0.5:
        c, d = -c, -d
    row = Fraction(2) ** rng.randint(-scale, scale)
    a, b = row * a, row * b
    k = Fraction(2) ** rng.randint(-scale, scale)
    return (k * a, k * b, k * c, k * d,
            to_fraction(_value(rng, size)), to_fraction(_value(rng, size)))


def apply_map(f, tri) -> tuple:
    a, b, c, d, tx, ty = f
    points = (tuple(map(to_fraction, p)) for p in tri)
    return tuple((to_dyadic(a * x + b * y + tx), to_dyadic(c * x + d * y + ty))
                 for x, y in points)


class Pair(NamedTuple):
    t1: tuple
    t2: tuple
    positive: bool
    large: bool


def random_pair(rng: random.Random, size, positive: bool) -> Pair:
    """t2 is a unit map of t1 (positive) or of a triangle of another area."""
    t1 = random_triangle(rng, size)
    if positive:
        source = t1
    else:
        area = odd_twice_area(t1)
        source = random_triangle(rng, size)
        while odd_twice_area(source) == area:
            source = random_triangle(rng, size)
    t2 = list(apply_map(random_unit_map(rng, size), source))
    rng.shuffle(t2)
    return Pair(t1, tuple(t2), positive, size is LARGE)


def quad_stream(seed: int):
    """Endless groups of four pairs: small and large, isomorphic and not."""
    rng = random.Random(f"iso-stream:{seed}")
    while True:
        yield tuple(random_pair(rng, size, positive)
                    for size in (SMALL, LARGE) for positive in (True, False))


def cli_stream(seed: int):
    """Endless CLI jobs (triangle for canon, pair for iso), alternating positives."""
    rng = random.Random(f"cli-oneshot:{seed}")
    for positive in itertools.cycle((True, False)):
        yield random_triangle(rng, SMALL), random_pair(rng, SMALL, positive)
