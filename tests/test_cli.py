"""Command line surface: literals, exit codes, JSON schema, SVG output."""

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import dyhat
from dyhat import AffineMap, DyadicRational, EncodingTriple, Hat, Triangle, normalize
from dyhat.classify import MAX_CENSUS_CELLS, CensusReport, CensusRow, census
from dyhat.cli import (
    MAX_LITERAL_DIGITS,
    MAX_POW2_EXPONENT,
    _witness_holds,
    format_dyadic,
    parse_dyadic,
    parse_hat,
    parse_shape,
    parse_triangle,
    run,
)
from dyhat.errors import (
    DegenerateTriangle,
    DomainError,
    InvalidHat,
    NotDyadic,
    ParseError,
)
from dyhat.geometry import Matrix2, Point2
from dyhat.hats import _normalized
from dyhat.render import render_svg

import tutil
from reference import GROUP_OF_CRITERIA, affine, apply, criteria_row, is_unit, parse_literal

D = DyadicRational


def map_from_json(obj: dict) -> AffineMap:
    """The AffineMap that cli.map_json printed as obj."""
    (a, b), (c, d) = obj["linear"]
    x, y = obj["translation"]
    return AffineMap(Matrix2(*map(parse_dyadic, (a, b, c, d))),
                     Point2(parse_dyadic(x), parse_dyadic(y)))


# ---------------------------------------------------------------- literals


def test_parse_dyadic():
    assert parse_dyadic("3/8") == D(3, -3)
    assert parse_dyadic("-5/2^1") == D(-5, -1)
    assert parse_dyadic("12") == D(12)
    assert parse_dyadic("-7") == D(-7)
    assert parse_dyadic("1/2^3") == D(1, -3)
    assert parse_dyadic(" 0 ") == D(0)


def test_parse_dyadic_rejects():
    with pytest.raises(NotDyadic):
        parse_dyadic("1/3")
    with pytest.raises(NotDyadic):
        parse_dyadic("1/6")
    # ASCII digits only: int() and str.isdecimal() take these too
    for bad in ("abc", "5/", "1/2^", "/8", "1.5", "", "+1", "1_1", "1/1_6", "1/+4",
                "\u0661", "1/\u0664", "1/2^\u0663", "1/2^+3", "\uff11"):
        with pytest.raises(ParseError):
            parse_dyadic(bad)


def test_parse_dyadic_bounds_literal_size():
    big = "1" + "0" * 5000  # 5,001 digits: past the cap and past int()'s own limit
    for bad in (big, "-" + big, "1/" + big, f"1/2^{MAX_POW2_EXPONENT + 1}"):
        with pytest.raises(ParseError):
            parse_dyadic(bad)
    at_cap = "7" * MAX_LITERAL_DIGITS
    assert parse_dyadic("-" + at_cap) == D(-int(at_cap))
    assert parse_dyadic(f"3/2^{MAX_POW2_EXPONENT}") == D(3, -MAX_POW2_EXPONENT)
    # isdigit() holds for superscripts, which int() rejects
    with pytest.raises(ParseError):
        parse_dyadic("1/\u00b2")


def test_oversized_literal_exits_4(tmp_path, capsys):
    big = "1" + "0" * 5000
    assert run(["canon", f"0,0 {big},3 5,0"]) == 4
    assert run(["canon", f"0,0 1/2^{MAX_POW2_EXPONENT + 1},3 5,0"]) == 4
    err = capsys.readouterr().err
    assert err.count("error:") == 2
    assert len(err) < 500
    # a hat literal's integers and aut's obey the same digit limit
    sevens = "7" * 1500
    out = tmp_path / "out.svg"
    for argv in (["canon", f"T 1 {sevens} 5"],
                 ["iso", "T 1 3 5", f"T 1 {sevens} 5"],
                 ["render", f"T 1 {sevens} 5", "--out", str(out)],
                 ["aut", "1", sevens, "5"]):
        assert run(argv) == 4, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: literal has a 1500-digit part"), argv
    assert not out.exists()


def test_collinear_literal_gets_a_short_diagnostic(capsys):
    # the diagnostic names no coordinate, so its length does not grow with them
    sevens = "7" * 999
    assert run(["canon", f"0,0 {sevens},{sevens} 1{sevens},1{sevens}"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert len(captured.err) < 100
    assert "are collinear" in captured.err


def test_format_dyadic():
    assert format_dyadic(D(3, -3)) == "3/8"
    assert format_dyadic(D(-5, -1)) == "-5/2"
    assert format_dyadic(D(3, 2)) == "12"
    assert format_dyadic(D(1, -11)) == "1/2^11"
    assert format_dyadic(D(0)) == "0"


def test_parse_hat():
    assert parse_hat("T 1 3 5") == Hat(1, 3, 5)
    assert parse_hat("TT 4 3 5") == Hat(4, 3, 5)
    with pytest.raises(InvalidHat):
        parse_hat("T 4 3 5")
    with pytest.raises(InvalidHat):
        parse_hat("T 1 2 3")
    for bad in ("X 1 2 3", "T 1 3", "T a b c", "T 1 3 5 7", "T +1 3 5", "T 1_1 3 5",
                "T \u0661 3 5", "TT 1 3 5\u0660"):
        with pytest.raises(ParseError, match="hat parameters must be integers|malformed"):
            parse_hat(bad)


def test_parse_triangle():
    t = parse_triangle("0,0 1,3 2,0")
    assert t == Triangle.of((0, 0), (1, 3), (2, 0))
    t = parse_triangle("0,0 1/2,1/2 1,0")
    assert t.vertices[1] == Point2(D(1, -1), D(1, -1))
    with pytest.raises(ParseError):
        parse_triangle("0,0 1,1")
    with pytest.raises(ParseError):
        parse_triangle("0,0,0 1,1 2,0")
    with pytest.raises(DegenerateTriangle):
        parse_triangle("0,0 1,1 2,2")


# ---------------------------------------------------------------- exit codes


def test_usage_errors_exit_2(capsys):
    assert run([]) == 2
    assert run(["bogus"]) == 2
    # argparse in Python 3.11 would give j the value [] here
    assert run(["aut", "--", "1", "--", "3"]) == 2
    assert "'--' may be given at most once" in capsys.readouterr().err
    # census bounds and --par spelled outside the integer grammar, as "abc"
    for bad in ("abc", "1_5", "+15", " 15", "15 ", "\u0661\u0665", "15\n"):
        assert run(["census", "--jmax", bad, "--mmax", "3"]) == 2, bad
        assert run(["census", "--jmax", "3", "--mmax", bad]) == 2, bad
        assert run(["census", "--jmax", "3", "--mmax", "3", "--par", bad]) == 2, bad
        err = capsys.readouterr().err
        assert err.count(f"invalid int value: {bad!r}\n") == 3, bad


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "census" in capsys.readouterr().out


def test_domain_errors_exit_4(capsys):
    assert run(["iso", "T 1 3", "T 1 3 5"]) == 4
    assert run(["canon", "0,0 1,1 2,2"]) == 4
    assert run(["aut", "4", "3", "5"]) == 4
    assert run(["aut", "2", "3", "5"]) == 4
    assert run(["aut", "1", "2", "3"]) == 4
    assert run(["aut", "x", "3", "5"]) == 4
    assert run(["census", "--jmax", "4", "--mmax", "3"]) == 4
    # integers spelled outside the grammar: "_", "+", spaces, other digits
    assert run(["aut", "1_1", "3", "5"]) == 4
    assert run(["aut", " 7", "3", "5"]) == 4
    assert run(["canon", "T +1 3 5"]) == 4
    assert run(["canon", "T 1_1 3 5"]) == 4
    assert run(["canon", "0,0 1,0 0,\u0661"]) == 4
    assert run(["canon", "0,0 1/\u0664,0 0,1"]) == 4
    assert run(["canon", "0,0 1/2^\u0663,0 0,1"]) == 4
    err = capsys.readouterr().err
    assert err.count("error:") == 14
    assert "error: hat parameters must be integers in 'x 3 5'\n" in err
    assert "error: hat parameters must be integers in '1_1 3 5'\n" in err
    assert "error: hat parameters must be integers in ' 7 3 5'\n" in err
    assert "error: hat parameters must be integers in 'T +1 3 5'\n" in err
    assert "error: malformed dyadic literal '\u0661'\n" in err
    assert "error: malformed denominator in '1/\u0664'\n" in err
    assert "error: malformed denominator in '1/2^\u0663'\n" in err


def test_census_above_the_cell_cap_exits_4():
    # the address-space limit turns a census that builds its cells anyway
    # into a quick MemoryError, not a host out of memory
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "dyhat", "census", "--jmax", "99999999999",
         "--mmax", "99999999999"],
        capture_output=True, text=True, env=_child_env(), timeout=60,
        preexec_fn=limit_memory,
    )
    assert (proc.returncode, proc.stdout) == (4, ""), proc.stderr
    assert proc.stderr.startswith(
        f"error: a census may sweep at most {MAX_CENSUS_CELLS} cells, got "
    )
    assert proc.stderr.count("\n") == 1


# ---------------------------------------------------------------- iso


def test_iso_hats(capsys):
    assert run(["iso", "T 1 3 5", "T 5 15 1"]) == 0
    out = capsys.readouterr().out
    assert "isomorphic (case c)" in out

    assert run(["iso", "T 3 27 21", "T 39 27 21"]) == 3
    assert "not isomorphic" in capsys.readouterr().out


def test_iso_exit_code_ignores_formatting_flags(capsys):
    assert run(["iso", "--json", "T 3 27 21", "T 39 27 21"]) == 3
    payload = json.loads(capsys.readouterr().out)["iso"]
    assert payload == {"result": False, "case": None, "map": None}

    assert run(["iso", "--quiet", "T 3 27 21", "T 39 27 21"]) == 3
    assert capsys.readouterr().out == ""


def test_iso_triangles_and_mixed_literals(capsys):
    assert run(["iso", "0,0 1,3 5,0", "0,0 7,3 5,0"]) == 0
    assert "isomorphic (case a)" in capsys.readouterr().out
    assert run(["iso", "T 1 3 5", "0,0 5,15 1,0"]) == 0
    capsys.readouterr()
    assert run(["iso", "0,0 5,15 1,0", "T 1 3 5"]) == 0
    assert "isomorphic (case c)" in capsys.readouterr().out
    assert run(["iso", "0,0 1,3 5,0", "T 3 27 21"]) == 3
    assert "not isomorphic" in capsys.readouterr().out
    # a hat literal, of either parity, is read as its triangle
    for hats, triangles, code in [
        (("TT 4 3 5", "T 1 3 5"), ("0,0 4,3 5,0", "0,0 1,3 5,0"), 0),
        (("T 3 27 21", "TT 39 27 21"), ("0,0 3,27 21,0", "0,0 39,27 21,0"), 3),
    ]:
        assert run(["iso", "--json", *hats]) == code
        by_hats = capsys.readouterr().out
        assert run(["iso", "--json", *triangles]) == code
        assert capsys.readouterr().out == by_hats
        assert run(["iso", "--json", hats[0], triangles[1]]) == code
        assert capsys.readouterr().out == by_hats


def test_iso_json_witness_maps_vertices(capsys):
    assert run(["iso", "--json", "T 1 3 5", "T 5 15 1"]) == 0
    payload = json.loads(capsys.readouterr().out)["iso"]
    assert payload["result"] is True and payload["case"] == "c"
    witness = map_from_json(payload["map"])
    src = Hat(1, 3, 5).triangle()
    dst = Hat(5, 15, 1).triangle()
    assert {apply(witness, v) for v in src.vertices} == set(dst.vertices)


# ---------------------------------------------------------------- aut


def test_aut_text_and_quiet(capsys):
    assert run(["aut", "3", "7", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("C3 (order 3)")
    assert out.count("linear") == 3

    assert run(["aut", "--quiet", "3", "7", "1"]) == 0
    assert capsys.readouterr().out.strip() == "C3"


def test_aut_json_schema(capsys):
    assert run(["aut", "--json", "15", "9", "21"]) == 0
    payload = json.loads(capsys.readouterr().out)["aut"]
    assert payload["group"] == "C2" and payload["order"] == 2
    assert {w["perm"] for w in payload["witnesses"]} == {"ABC", "CBA"}
    vertices = Hat(15, 9, 21).triangle().vertices
    for w in payload["witnesses"]:
        f = map_from_json({"linear": w["linear"], "translation": w["translation"]})
        assert {apply(f, v) for v in vertices} == set(vertices)


# ---------------------------------------------------------------- normalize, canon


def test_canon(capsys):
    assert run(["canon", "0,0 1,3 5,0"]) == 0
    assert capsys.readouterr().out.strip() == "1 3 5"
    assert run(["canon", "--json", "0,0 1,3 5,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert EncodingTriple(*payload["triple"]) == EncodingTriple(1, 3, 5)
    # a hat literal stands for its triangle, here one isomorphic to T 1 3 5
    assert run(["canon", "T 5 15 1"]) == 0
    assert capsys.readouterr().out.strip() == "1 3 5"


def test_normalize_canonical(capsys):
    # normalize has no --canonical flag: canon prints the canonical triple
    assert run(["normalize", "--canonical", "0,0 1,3 2,0"]) == 2
    assert "unrecognized arguments: --canonical" in capsys.readouterr().err
    assert run(["canon", "0,0 1,3 2,0"]) == 0
    assert capsys.readouterr().out == "5 3 1\n"


def test_normalize_lists_all_roles(capsys):
    assert run(["normalize", "0,0 1,3 5,0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("ABC: T 1 3 5")
    assert {line.split(":")[0] for line in lines} == {
        "ABC", "ACB", "BAC", "BCA", "CAB", "CBA"
    }
    # the hat literal of the same triangle
    assert run(["normalize", "T 1 3 5"]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_normalize_reduces_the_triangle_once(capsys, monkeypatch):
    # one role_triples run, three edges, serves all six role orders
    edge_hats = dyhat.hats._edge_hats
    calls = []

    def counted(*args):
        calls.append(args)
        return edge_hats(*args)

    monkeypatch.setattr("dyhat.hats._edge_hats", counted)
    for argv in (["normalize", "0,0 1,3 5,0"], ["normalize", "--verify", "--json", "T 5 15 1"]):
        calls.clear()
        assert run(argv) == 0
        assert len(calls) == 3, argv
    capsys.readouterr()


def test_normalize_verify(capsys):
    assert run(["normalize", "--verify", "0,0 1,3 5,0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.endswith("ok") for line in lines)


def test_normalize_verify_reads_each_view_once(capsys, monkeypatch):
    # the check reads integers and builds no view, and each witness's
    # map_json serves both the JSON payload and the text line
    outputs = {}
    for flags in ([], ["--json"]):
        built = []
        init = DyadicRational.__init__

        def counted_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(DyadicRational, "__init__", counted_init)
        assert run(["normalize", "--verify", *flags, "0,0 1,3 5,0"]) == 0
        monkeypatch.undo()
        outputs[tuple(flags)] = capsys.readouterr().out
        assert len(built) <= 350, flags
    assert outputs[()].splitlines()[0] == (
        "ABC: T 1 3 5  linear [[1, 0], [0, 1]] translation (0, 0)  ok"
    )
    assert len(json.loads(outputs[("--json",)])["results"]) == 6


def test_failed_verify_exits_5(capsys, monkeypatch):
    # the faults go in at the helper that the command calls once per order
    def shifted_hat(tri, roles, triples):
        result = _normalized(tri, roles, triples)
        h = result.hat
        return result._replace(hat=Hat(h.i + 2 * h.j, h.j, h.m))

    def shifted_witness(tri, roles, triples):
        # the right hat, with its witness moved by 2**-40 along x
        result = _normalized(tri, roles, triples)
        return result._replace(witness=affine(1, 0, 0, 1, D(1, -40)) @ result.witness)

    def stretched(tri, roles, triples):
        # the hat stretched 3 times along y, with the witness that sends the
        # vertices onto it: right images from a map that is not a unit
        result = _normalized(tri, roles, triples)
        h = result.hat
        return result._replace(hat=Hat(h.i, 3 * h.j, h.m),
                               witness=affine(1, 0, 0, 3) @ result.witness)

    for fake in (shifted_hat, shifted_witness, stretched):
        monkeypatch.setattr("dyhat.cli._normalized", fake)
        assert run(["normalize", "--verify", "0,0 1,3 5,0"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal inconsistency: witness for roles ABC failed verification\n"
        )


@given(st.one_of(tutil.triangles, tutil.large_triangles),
       st.one_of(tutil.unit_maps, tutil.any_maps),
       st.sampled_from(list(permutations((0, 1, 2)))))
def test_the_witness_check_matches_fraction_application(t, f, roles):
    """_witness_holds re-applies a map on the integers; on Fraction, the
    same check is three images and a unit test.  The true witness, the
    true witness after another map, and that map alone all agree."""
    h, witness = normalize(t, roles)
    targets = [Point2(D(0), D(0)), Point2(D(h.i), D(h.j)), Point2(D(h.m), D(0))]
    for g in (witness, f @ witness, f):
        want = [apply(g, t.vertices[r]) for r in roles] == targets and is_unit(g)
        assert _witness_holds(g, t, roles, h) == want
    assert _witness_holds(witness, t, roles, h)


def test_normalize_json_round_trips(capsys):
    assert run(["normalize", "--json", "0,0 1,3 5,0"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert len(results) == 6
    t = Triangle.of((0, 0), (1, 3), (5, 0))
    for entry in results:
        h = Hat(**entry["hat"])
        triple = EncodingTriple(*entry["triple"])
        assert (triple.i, triple.j, triple.m) == (h.i, h.j, h.m)
        witness = map_from_json(entry["map"])
        roles = ["ABC".index(ch) for ch in entry["roles"]]
        assert apply(witness, t.vertices[roles[0]]) == Point2(D(0), D(0))
        assert apply(witness, t.vertices[roles[1]]) == Point2(D(h.i), D(h.j))
        assert apply(witness, t.vertices[roles[2]]) == Point2(D(h.m), D(0))


def test_normalize_prints_hat_parameters_past_the_str_digit_limit(capsys):
    """A triangle within the literal caps whose largest hat parameter has
    4,466 digits, past the 4,300 that int-to-str allows by default: each
    output prints it, and the limit is lifted for the command alone."""
    n, m, k = "9" * 1000, "7" * 999 + "1", "3" * 1000
    literal = f"0,0 {n}/2^4096,{m} {k},-{n}/2^4096"
    triples = dyhat.hats.role_triples(parse_triangle(literal))
    assert max(x.bit_length() for t in triples for x in t) > 4300 * math.log2(10)
    limit = sys.get_int_max_str_digits()
    outputs = {}
    for flag in ("", "--json", "--quiet"):
        assert run(["normalize", *filter(None, [flag]), literal]) == 0
        assert sys.get_int_max_str_digits() == limit
        outputs[flag] = capsys.readouterr().out
    sys.set_int_max_str_digits(0)
    try:
        for flag in ("", "--quiet"):
            read = [tuple(map(int, line.split()[2:5])) for line in outputs[flag].splitlines()]
            assert tuple(read) == triples, flag
        results = json.loads(outputs["--json"])["results"]
        assert tuple(tuple(entry["triple"]) for entry in results) == triples
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------- census


def test_census_text(capsys):
    assert run(["census", "--jmax", "3", "--mmax", "5"]) == 0
    out = capsys.readouterr().out
    assert "census ok: 6 cells" in out


def test_census_json(capsys):
    assert run(["census", "--json", "--jmax", "3", "--mmax", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)["census"]
    assert payload["ok"] is True
    assert len(payload["rows"]) == 6
    for row in payload["rows"]:
        assert row["pointed"] == row["j"]
        assert row["orbit_ok"] is True


def test_census_failure_exits_1(capsys, monkeypatch):
    bad_row = CensusRow(3, 1, 2, 1, {"Trivial": 3, "C2": 0, "C3": 0, "S3": 0}, True)
    fake = CensusReport(3, 1, (bad_row,))
    monkeypatch.setattr("dyhat.cli.census", lambda *a, **k: fake)
    assert run(["census", "--jmax", "3", "--mmax", "1"]) == 1
    assert "census FAILED" in capsys.readouterr().out
    monkeypatch.undo()
    # Hat(1, 9, 5) has the trivial group: one pointed class for its six
    # role orders breaks |orbit| x |Aut| = 6 in the (9, 5) cell alone
    # the census reduces each hat's stored pair, built by hand
    reduce = dyhat.classify.scaled_role_triples
    lying = Hat(1, 9, 5).triangle().scaled_coords()
    monkeypatch.setattr(
        "dyhat.classify.scaled_role_triples",
        lambda scaled: (reduce(scaled)[0],) * 6 if scaled == lying else reduce(scaled))
    report = census(9, 5)
    assert not report.ok
    assert [(row.j, row.m) for row in report.rows if not row.orbit_ok] == [(9, 5)]
    assert run(["census", "--jmax", "9", "--mmax", "5"]) == 1
    assert "census FAILED" in capsys.readouterr().out


# ---------------------------------------------------------------- render


def test_render_hat(tmp_path, capsys):
    out = tmp_path / "hat.svg"
    assert run(["render", "T 1 3 5", "--out", str(out)]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")
    svg = out.read_text()
    assert "polygon" in svg
    for label in ("A", "B", "C"):
        assert f">{label}<" in svg


def test_render_triangle_json(tmp_path, capsys):
    out = tmp_path / "tri.svg"
    assert run(["render", "--json", "0,0 1/2,1/2 1,0", "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"render": {"out": str(out)}}
    ET.parse(out)


def test_render_requires_out(capsys):
    assert run(["render", "T 1 3 5"]) == 2
    capsys.readouterr()


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("shape, fixture", [
    ("T 1 3 5", "render_T_1_3_5.svg"),
    ("0,0 1/2,1/2 1,0", "render_half_triangle.svg"),
])
def test_render_output_is_unchanged(tmp_path, capsys, shape, fixture):
    out = tmp_path / "out.svg"
    assert run(["render", "--quiet", shape, "--out", str(out)]) == 0
    assert out.read_bytes() == (FIXTURES / fixture).read_bytes()


def _render_literals(seed: int = 1729, count: int = 300) -> list[str]:
    """Seeded triangle and hat literals: negative and fractional coordinates,
    triangles with no vertex at the origin, spans wide enough that the tick
    step is above 1, and hats of either parity."""
    rng = random.Random(seed)

    def coord(bound: int, shift: int) -> str:
        den = 1 << rng.randint(0, 3)
        n = rng.randint(-bound, bound) + shift * den
        return f"{n}/{den}" if den > 1 else str(n)

    literals = []
    for k in range(count):
        kind = k % 4
        if kind == 3:
            head = rng.choice(["T", "TT"])
            i = 2 * rng.randint(-50, 100) + (head == "T" or rng.randint(0, 1))
            j, m = rng.randrange(1, 99, 2), rng.randrange(1, 99, 2)
            literals.append(f"{head} {i} {j} {m}")
            continue
        bound = (8, 60, 400)[kind]
        # two thirds of the triangles are shifted away from the origin
        dx, dy = (rng.randint(-bound, bound) if k % 3 else 0 for _ in range(2))
        literals.append(" ".join(
            f"{coord(bound, dx)},{coord(bound, dy)}" for _ in range(3)))
    return literals


#: sha256 over (literal, render_svg output) for every _render_literals shape,
#: recorded while render_svg still wrote out each <line> element by hand
_RENDER_DIGEST = "0e991b9f10ce98dda09c1f8423307f326e9a4029106737e37be3775a9d1e3b24"


def test_render_output_over_seeded_shapes_is_unchanged():
    digest = hashlib.sha256()
    for literal in _render_literals():
        digest.update(repr((literal, render_svg(parse_shape(literal)))).encode())
    assert digest.hexdigest() == _RENDER_DIGEST


def test_render_wide_triangle_is_fast(tmp_path):
    # a child process, so that a lattice loop over every integer fails the
    # timeout instead of hanging the suite; the child times run() alone
    out = tmp_path / "wide.svg"
    script = (
        "import sys, time\n"
        "from dyhat.cli import run\n"
        "start = time.perf_counter()\n"
        "code = run(['render', '--quiet', '0,0 1000000000000,3 5,0', '--out', sys.argv[1]])\n"
        "print(code, time.perf_counter() - start)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(out)], capture_output=True,
                          text=True, env=_child_env(), timeout=20)
    code, seconds = proc.stdout.split()
    assert code == "0", proc.stderr
    assert float(seconds) < 1.0
    ET.parse(out)


@pytest.mark.parametrize("shape", [
    f"0,0 {'9' * 400},3 5,0",  # the float of a vertex overflows
    f"0,0 {'9' * 308},3 -{'9' * 308},0",  # the span overflows
    f"{'9' * 308},0 {'9' * 308},1 {'9' * 307}1,0",  # the centroid overflows
])
def test_render_oversized_coordinate_exits_4(tmp_path, capsys, shape):
    out = tmp_path / "huge.svg"
    assert run(["render", shape, "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert "too large to draw" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_render_into_a_missing_directory_exits_6(tmp_path, capsys):
    out = tmp_path / "missing" / "hat.svg"
    assert run(["render", "T 1 3 5", "--out", str(out)]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


# ---------------------------------------------------------------- pinned output


_PIN_SHAPES = ["T 1 3 5", "TT 4 3 5", "0,0 1,3 5,0", "0,0 1/2,1/2 1,0"]
_PIN_CALLS = [
    *(["normalize", shape] for shape in _PIN_SHAPES),
    *(["normalize", "--verify", shape] for shape in _PIN_SHAPES),
    *(["canon", shape] for shape in _PIN_SHAPES),
    ["aut", "3", "7", "1"],
    ["aut", "15", "9", "21"],
    ["aut", "1", "1", "1"],
    ["aut", "1", "3", "5"],
    ["iso", "T 1 3 5", "T 5 15 1"],
    ["iso", "TT 4 3 5", "0,0 1,3 5,0"],
    ["iso", "0,0 1,3 5,0", "0,0 7,3 5,0"],
    ["iso", "T 3 27 21", "TT 39 27 21"],
    ["census", "--jmax", "7", "--mmax", "5"],
    *(["render", shape, "--out", "out.svg"] for shape in _PIN_SHAPES),
    # refusals
    ["canon", "0,0 1,1 2,2"],
    ["canon", "T a 3 5"],
    ["normalize", "T 4 3 5"],
    ["iso", "T 1 3", "T 1 3 5"],
    ["aut", "4", "3", "5"],
    ["aut", "1", "3"],
    ["census", "--jmax", "4", "--mmax", "3"],
    ["render", "0,0 1/3,1 1,0", "--out", "out.svg"],
]


def _fixture_lines(name: str) -> list[str]:
    return (FIXTURES / name).read_text(encoding="utf-8").splitlines()


_LARGE_PAIRS = [line.split("|") for line in _fixture_lines("iso_large_pairs.txt")]

#: The pinned answers: name -> (argv lists, what each call adds to the hash,
#: a format of call = (argv, code, out, err), out and code; the sha256 of
#: it all).  A digest changes only with a reason stated in CHANGES.md.
#: The large rows hash each call's stdout and then its exit code, as the
#: shell loops that first pinned them did; the 63x63 census is pinned
#: serial and with two workers, to one report.
_PINS = {
    "small calls in each output mode": (
        [[command, *flags, *rest]
         for flags in ([], ["--quiet"], ["--json"], ["--json", "--quiet"])
         for command, *rest in _PIN_CALLS],
        "{call!r}", "d8db720bcb7141bf287e75d966e638c94a7a7dff62dac16308f3a9cf1a12f722"),
    "census 31x31": (
        [["census", "--jmax", "31", "--mmax", "31", "--json"]],
        "{out}", "4b20b2b6d106925fa6622e0ddcdfb6109bc43e572be55f88f596a6f8f7a100a3"),
    "census 63x63": (
        [["census", "--jmax", "63", "--mmax", "63", "--json"]],
        "{out}", "f873dbb01a403da8330187bb1ba0f5bea8f88975c397033e4c08d0ef1a310b0b"),
    "census 63x63 with two workers": (
        [["census", "--jmax", "63", "--mmax", "63", "--par", "2", "--json"]],
        "{out}", "f873dbb01a403da8330187bb1ba0f5bea8f88975c397033e4c08d0ef1a310b0b"),
    "iso on the ten large pairs": (
        [["iso", "--json", *pair] for pair in _LARGE_PAIRS],
        "{out}exit {code}\n", "ec11c4869809f572cca2b78643be49a0e8aa8ae0fe19f0c0685ae6c0626b4847"),
    "aut on the six large hats": (
        [["aut", "--json", *line.split()] for line in _fixture_lines("aut_large_hats.txt")],
        "{out}exit {code}\n", "1fe74055403ae9bdf528687ac1e44c045fb4373527612368488d4825caaaeece"),
    "normalize --verify on the twenty large triangles": (
        [["normalize", "--verify", "--json", tri] for pair in _LARGE_PAIRS for tri in pair],
        "{out}exit {code}\n", "1b5dd2b22ce2e3210b553cb0b41d0053ee42efa9398b0caa28c3eb87a54ae775"),
    "canon on the twenty large triangles": (
        [["canon", "--json", tri] for pair in _LARGE_PAIRS for tri in pair],
        "{out}exit {code}\n", "45e02c46b05301f16b401d966e03991e29cb4f9861e2e4bcc532444f78a79d64"),
}


def test_cli_output_is_unchanged(tmp_path, monkeypatch, capsys):
    # render writes a relative path, so the path it prints does not depend
    # on the test's directory; --par 2 gets two workers even on a one-CPU host
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    digests = {}
    for name, (calls, record, _) in _PINS.items():
        digest = hashlib.sha256()
        for argv in calls:
            code = run(argv)
            out, err = capsys.readouterr()
            digest.update(record.format(call=(argv, code, out, err), out=out, code=code).encode())
        digests[name] = digest.hexdigest()
    assert digests == {name: pin for name, (_, _, pin) in _PINS.items()}


def test_large_iso_pairs_fixture_covers_every_case_with_even_gcd_edges(capsys):
    """The pairs whose iso --json output _PINS pins: every case letter and
    four pairs that are not isomorphic, each pair with an edge whose
    integers have an even gcd, so that the 2-adic division runs."""
    cases = []
    for first, second in _LARGE_PAIRS:
        code = run(["iso", "--json", first, second])
        result = json.loads(capsys.readouterr().out)["iso"]
        assert code == (0 if result["result"] else 3)
        cases.append(result["case"])
        edges = []
        for tri in map(parse_shape, (first, second)):
            n, _ = tri.scaled_coords()
            edges += [math.gcd(n[2 * a] - n[2 * b], n[2 * a + 1] - n[2 * b + 1])
                      for a, b in ((0, 1), (0, 2), (1, 2))]
        assert any(g % 2 == 0 for g in edges), (first, second)
    assert sorted(cases, key=str) == [None, None, None, None, *"abcdef"]


def test_large_aut_hats_fixture_covers_every_subgroup(capsys):
    """The hats whose aut --json output _PINS pins: one per row of the
    subgroup table, each with the group the reference criteria give it."""
    rows = []
    for line in _fixture_lines("aut_large_hats.txt"):
        assert run(["aut", "--json", *line.split()]) == 0
        group = json.loads(capsys.readouterr().out)["aut"]
        tag, cases, labels = criteria_row(Hat(*map(int, line.split())))
        assert (group["group"], tuple(w["perm"] for w in group["witnesses"])) == (tag, labels)
        rows.append((tag, cases))
    assert sorted(rows) == sorted(GROUP_OF_CRITERIA.values())


# ---------------------------------------------------------------- fuzzing


_digits = st.text("0123456789", min_size=1, max_size=6)
_oversized = st.one_of(
    st.integers(MAX_LITERAL_DIGITS + 1, MAX_LITERAL_DIGITS + 40).map(lambda n: "7" * n),
    st.integers(MAX_POW2_EXPONENT + 1, 10**12).map("1/2^{}".format),
)
_denominators = st.one_of(
    st.just(""),
    st.sampled_from(["/2", "/8", "/1024"]),
    _digits.map("/{}".format),
    _digits.map("/2^{}".format),
)
_numbers = st.tuples(st.sampled_from(["", "-"]), _digits, _denominators).map("".join)
_integers = st.one_of(st.integers(-40, 40).map(str), _digits)
_vertices = st.tuples(_numbers, _numbers).map(",".join)
_triangle_literals = st.lists(_vertices, min_size=3, max_size=3).map(" ".join)
_hat_literals = st.tuples(st.sampled_from(["T", "TT"]), _integers, _integers,
                          _integers).map(" ".join)
_oversized_literals = st.one_of(_oversized.map("0,0 {},3 5,0".format),
                                _oversized.map("T 1 {} 5".format))


def _mutate(text: str, position: int, char: str, kind: str) -> str:
    k = position % (len(text) + 1)
    if kind == "delete":
        return text[:k] + text[k + 1:]
    if kind == "insert":
        return text[:k] + char + text[k:]
    return text[:k] + char + text[k + 1:]


_literals = st.one_of(_triangle_literals, _hat_literals, _oversized_literals)
_mutations = st.sampled_from(["delete", "insert", "replace"])
_shapes = st.one_of(
    _literals,
    # \u0663 is an Arabic-Indic digit, which \d matches; \u00b2 is a
    # superscript two, which isdigit() accepts and int() refuses
    st.builds(_mutate, _literals, st.integers(0, 60),
              st.sampled_from([*"0123456789-/,^T .\tx", "\u0663", "\u00b2"]),
              _mutations),
)
#: What the grammar tests draw text over: ASCII digits, the signs and
#: separators that int() or a loose reader would take, space, tab and
#: other scripts' digits (Arabic-Indic, superscript, fullwidth, Devanagari);
#: a shape adds the vertex comma and the hat keyword's letter.
_LITERAL_CHARS = "0123456789-+/^_ \t\u0661\u00b2\uff11\u0966"
_SHAPE_CHARS = _LITERAL_CHARS + ",T"
_at_the_caps = st.one_of(
    st.integers(MAX_LITERAL_DIGITS - 1, MAX_LITERAL_DIGITS).map(lambda n: "-" + "7" * n),
    st.integers(MAX_POW2_EXPONENT - 1, MAX_POW2_EXPONENT).map("1/2^{}".format),
)
_dyadic_literals = st.one_of(
    _numbers, _oversized, _at_the_caps, tutil.dyadics.map(format_dyadic)
)


def _read(parse, text):
    """parse(text), or "refused" for a domain error."""
    try:
        return parse(text)
    except DomainError:
        return "refused"


@given(st.one_of(
    st.text(_LITERAL_CHARS, max_size=12),
    _dyadic_literals,
    st.builds(_mutate, _dyadic_literals, st.integers(0, 60),
              st.sampled_from(_LITERAL_CHARS), _mutations),
))
def test_parse_dyadic_reads_the_literal_grammar(text):
    assert _read(lambda t: parse_dyadic(t).to_fraction(), text) == _read(parse_literal, text)


def _shape_vertices(text):
    return tuple((p.x.to_fraction(), p.y.to_fraction()) for p in parse_shape(text).vertices)


@given(st.one_of(
    st.text(_SHAPE_CHARS, max_size=20),
    _shapes,
    st.builds(_mutate, _literals, st.integers(0, 60), st.sampled_from(_SHAPE_CHARS),
              _mutations),
))
def test_parse_shape_reads_the_literal_grammar(text):
    assert _read(_shape_vertices, text) == _read(lambda t: parse_literal(t, shape=True), text)


#: Numerators from a few digits short of the digit cap to a few past it.
_near_the_digit_cap = st.integers(MAX_LITERAL_DIGITS - 2, MAX_LITERAL_DIGITS + 2).flatmap(
    lambda n: st.integers(-(10**n) + 1, 10**n - 1))


@given(st.builds(
    D,
    st.one_of(st.integers(-(2**64), 2**64), _near_the_digit_cap),
    # around 2^-4096, and up to 2^3400, which alone has 1,024 digits
    st.one_of(st.integers(-MAX_POW2_EXPONENT, 64),
              st.integers(-MAX_POW2_EXPONENT - 4, -MAX_POW2_EXPONENT + 4),
              st.integers(3300, 3400)),
))
def test_format_dyadic_reads_back_through_the_literal_grammar(d):
    # the caps bound input only: a printed value past them is refused by
    # the grammar and by parse_dyadic alike, and every other one reads back
    text, value = format_dyadic(d), d.to_fraction()
    if (len(str(abs(value.numerator))) > MAX_LITERAL_DIGITS
            or value.denominator.bit_length() - 1 > MAX_POW2_EXPONENT):
        with pytest.raises(ParseError):
            parse_dyadic(text)
        assert _read(parse_literal, text) == "refused"
    else:
        assert parse_literal(text) == value
        assert parse_dyadic(text) == d


#: flags that take no value, so that an inserted one cannot pick up a
#: census bound, a worker count or a render path
_flags = st.sampled_from(["--json", "--quiet", "--canonical", "--verify", "--help",
                          "--bogus", "--"])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_fuzzed_argv_exits_with_a_documented_code(fuzz_dir, data):
    command = data.draw(st.sampled_from(
        ["normalize", "canon", "iso", "aut", "census", "render", "isomorphic", ""]))
    if command == "iso":
        argv = [command, data.draw(_shapes), data.draw(_shapes)]
    elif command == "aut":
        numbers = st.one_of(_integers, _oversized)
        argv = [command, *data.draw(st.lists(numbers, min_size=2, max_size=4))]
    elif command == "census":
        # 99999999999 asks for more cells than a census may sweep; a
        # mutation adds no ASCII digit, so a bound it leaves valid stays small
        plain = st.one_of(st.integers(-1, 15), st.just(99999999999)).map(str)
        bounds = st.one_of(plain, st.builds(
            _mutate, plain, st.integers(0, 12),
            st.sampled_from([*"-+_ \tx", "\u0663", "\u00b2", "\uff11"]), _mutations))
        argv = [command, "--jmax", data.draw(bounds), "--mmax", data.draw(bounds),
                "--par", data.draw(st.sampled_from(["1", "2"]))]
    elif command == "render":
        out = fuzz_dir / data.draw(st.sampled_from(["out.svg", "missing/out.svg"]))
        argv = [command, data.draw(_shapes), "--out", str(out)]
    else:
        argv = [command, data.draw(_shapes)]
    for flag in data.draw(st.lists(_flags, max_size=3)):
        argv.insert(data.draw(st.integers(0, len(argv))), flag)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(argv)
    assert code in range(7), argv
    assert "Traceback" not in stderr.getvalue(), argv


# ---------------------------------------------------------------- entry point


def _child_env() -> dict:
    """Environment in which a child interpreter imports this same dyhat."""
    src = str(Path(dyhat.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def test_installed_script():
    # the console script when installed, else the same entry point via -m
    command = ["dyhat"] if shutil.which("dyhat") else [sys.executable, "-m", "dyhat"]
    env = _child_env()
    proc = subprocess.run(command, capture_output=True, text=True, env=env)
    assert proc.returncode == 2  # no subcommand

    proc = subprocess.run(
        [*command, "aut", "--quiet", "3", "7", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "C3"


#: Commands that print more than one line.
_MANY_LINES = [
    ["census", "--jmax", "15", "--mmax", "15"],
    ["normalize", "--verify", "0,0 1,3 5,0"],
]


@pytest.mark.parametrize("args", _MANY_LINES)
def test_reader_closing_stdout_after_one_line_leaves_no_traceback(args):
    proc = subprocess.Popen([sys.executable, "-m", "dyhat", *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_child_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    # the rest of the output may still have fitted in the pipe, hence 0
    assert proc.wait(timeout=60) in (0, 6)
    assert first.strip()
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


@pytest.mark.parametrize("args", _MANY_LINES)
def test_stdout_closed_before_the_first_line_exits_6_quietly(args):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "dyhat", *args], stdout=write,
                              stderr=subprocess.PIPE, env=_child_env(), timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (6, b"")


#: Modules that only a pooled census (the first two), to_fraction
#: (fractions) or --json output (json) needs, and two that no dyhat module
#: imports (dataclasses and inspect, which dataclasses imports).
_LAZY_MODULES = ("concurrent.futures.process", "multiprocessing", "fractions",
                 "json", "dataclasses", "inspect")


def _isolated_child(script: str) -> subprocess.CompletedProcess:
    """Run script in a fresh `python -I -S` interpreter; its sys.argv[1] is
    the directory that holds this same dyhat (-I ignores PYTHONPATH, and -S
    skips the site hook, whose .pth files may import modules themselves)."""
    src = str(Path(dyhat.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-I", "-S", "-c", script, src],
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("module", ["dyhat", "dyhat.cli"])
def test_import_loads_neither_the_pool_nor_fractions(module):
    # the child reports with repr, as importing json would load a module
    # under test
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        f"import {module}\n"
        "print(repr([sorted(set(sys.modules) - before), sorted(sys.modules)]))\n"
    )
    proc = _isolated_child(script)
    assert proc.returncode == 0, proc.stderr
    added, loaded = ast.literal_eval(proc.stdout)
    assert module in added
    # checked against every loaded module, so none can hide in "before" either
    assert not set(_LAZY_MODULES) & set(added)
    assert not set(_LAZY_MODULES) & set(loaded)


def test_json_arrives_with_json_output():
    # positive control for the test above: text output, on a triangle and
    # on its hat literal (T 5 15 1 is the triangle 0,0 5,15 1,0), loads no
    # lazy module, and --json loads json and prints the same line as before
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from dyhat.cli import run\n"
        "codes = [run(['canon', '--quiet', '0,0 5,15 1,0']),\n"
        "         run(['canon', '--quiet', 'T 5 15 1']),\n"
        "         run(['iso', '--quiet', 'T 1 3 5', 'T 5 15 1'])]\n"
        f"before = sorted(set({_LAZY_MODULES!r}) & set(sys.modules))\n"
        "codes.append(run(['iso', '--json', 'T 1 3 5', 'T 5 15 1']))\n"
        "print(repr([codes, before, 'json' in sys.modules]))\n"
    )
    proc = _isolated_child(script)
    assert proc.returncode == 0, proc.stderr
    canon, canon_hat, iso_json, report = proc.stdout.splitlines()
    assert canon == canon_hat == "1 3 5"
    assert iso_json == (
        '{"iso": {"result": true, "case": "c", "map": {"linear": '
        '[["1", "0"], ["3", "-1"]], "translation": ["0", "0"]}}}'
    )
    assert ast.literal_eval(report) == [[0, 0, 0, 0], [], True]


def test_pooled_census_loads_the_pool_and_matches_serial():
    # positive control for the test above: the pool arrives with its first use
    script = (
        "import json, os, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from dyhat.classify import census\n"
        "os.sched_getaffinity = lambda pid: {0, 1}  # two workers on one CPU\n"
        "serial = census(3, 3)\n"
        "before = 'concurrent.futures.process' in sys.modules\n"
        "pooled = census(3, 3, workers=2)\n"
        "after = 'concurrent.futures.process' in sys.modules\n"
        "print(json.dumps([before, after, pooled == serial]))\n"
    )
    proc = _isolated_child(script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, True, True]


def test_the_cli_import_loads_no_typing():
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import dyhat.cli\n"
        "print(repr(['dyhat.cli' in sys.modules, 'typing' in sys.modules]))\n"
    )
    proc = _isolated_child(script)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == [True, False]


def test_inconsistency_exits_5(capsys, monkeypatch):
    # Hat(1, 9, 5) has the trivial group: case tests that also find case b
    # disagree with the oracle, and "abcde" names no subgroup of S3
    for cases, message in (("ab", "criteria and oracle disagree"),
                           ("abcde", "no subgroup of S3")):
        monkeypatch.setattr("dyhat.classify.iso_case", lambda h1, h2, cases=cases: cases)
        assert run(["aut", "1", "9", "5"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_census_inconsistency_exits_5(capsys, monkeypatch):
    # a census checks each hat's group without automorphism_group: a lie
    # about Hat(1, 9, 5) alone, in the (9, 5) cell, still stops it
    iso_case = dyhat.classify.iso_case
    for lie, message in (("ab", "criteria and oracle disagree"),
                         ("abcde", "no subgroup of S3")):
        monkeypatch.setattr(
            "dyhat.classify.iso_case",
            lambda h1, h2, lie=lie: lie if tuple(h1) == (1, 9, 5) else iso_case(h1, h2))
        assert run(["census", "--jmax", "9", "--mmax", "5"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert "Hat(i=1, j=9, m=5)" in captured.err
    monkeypatch.undo()
    assert run(["census", "--jmax", "9", "--mmax", "5"]) == 0


def _permuted_roles(order):
    """A fault in the census's reduction: scaled_role_triples with its
    entries in order."""
    reduce = dyhat.classify.scaled_role_triples
    return lambda scaled: tuple(reduce(scaled)[k] for k in order)


@pytest.mark.parametrize("order", [
    (0, 1, 4, 3, 2, 5),  # swap entries 2 and 4
    (0, 3, 2, 1, 4, 5),  # swap entries 1 and 3
    (0, 2, 3, 4, 5, 1),  # rotate entries 1..5
    (5, 1, 2, 3, 4, 0),  # swap entries 0 and 5
], ids=["swap-2-4", "swap-1-3", "rotate-1-5", "swap-0-5"])
def test_census_checks_its_reduction_against_the_oracle(capsys, monkeypatch, order):
    # each fault keeps every row of census(31, 31), with ok True, so only
    # the check that each realized case fixes the role triples sees it
    monkeypatch.setattr("dyhat.classify.scaled_role_triples", _permuted_roles(order))
    assert run(["census", "--jmax", "31", "--mmax", "31"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "reduction and oracle disagree on Hat(i=" in captured.err


def test_normalize_without_a_witness_exits_5(capsys, monkeypatch):
    monkeypatch.setattr("dyhat.hats.solve_correspondence", lambda src, dst, perm: None)
    assert run(["normalize", "T 1 3 5"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("internal inconsistency: ")


def test_inconsistency_survives_optimized_mode():
    # python -O strips assert statements; the cross-checks must still fire:
    # the group check on aut, and the every-letter check on iso, where a
    # case route that drops "d" keeps the verdict and the first letter "c"
    script = (
        "import sys, dyhat.classify, dyhat.cli\n"
        "real = dyhat.classify.iso_case\n"
        "dyhat.classify.iso_case = lambda h1, h2: 'ab'\n"
        "try:\n"
        "    dyhat.classify.automorphism_group(dyhat.Hat(1, 9, 5))\n"
        "except dyhat.errors.InconsistencyError:\n"
        "    print('raised')\n"
        "print(dyhat.cli.run(['aut', '1', '9', '5']))\n"
        "dyhat.classify.iso_case = lambda h1, h2: real(h1, h2).replace('d', '')\n"
        "try:\n"
        "    dyhat.isomorphic(dyhat.Hat(1, 3, 5).triangle(), dyhat.Hat(5, 15, 1).triangle())\n"
        "except dyhat.errors.InconsistencyError:\n"
        "    print('raised')\n"
        "print(dyhat.cli.run(['iso', 'T 1 3 5', 'T 5 15 1']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "5", "raised", "5"]
    assert "criteria and oracle disagree" in proc.stderr
    assert "isomorphism routes disagree" in proc.stderr
