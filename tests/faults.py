"""The fault table: one row per injected fault, each a cross-check that must
fire.

A row names the package functions that its fault replaces (each with its
fake), the library calls that must then raise InconsistencyError, the
dyhat argvs that must then exit 5 with nothing on stdout and one line on
stderr, and the message that every raise and every stderr line must match.
check(row) runs a row at the library and at the CLI, first without its
fault, where every call returns and every argv exits 0 or 3 with nothing
on stderr, and then with it.  tests/test_faults.py runs each row in
process, and runs

    python -O tests/faults.py

once, which prints each row's problems and the source lines that built
each InconsistencyError, as JSON.  Like tutil.py, a plain module that
pytest does not collect.
"""

import contextlib
import io
import json
import pkgutil
import re
import sys
from collections import namedtuple
from operator import itemgetter
from pathlib import Path
from unittest import mock

from dyhat import (DyadicRational, Hat, all_encoding_triples, automorphism_group, canonical_form,
                   census, classify, cli, hats, isomorphic, normalize)
from dyhat.errors import InconsistencyError
from dyhat.oracle import CORRESPONDENCES

from reference import IDENTITY, affine, val2

Fault = namedtuple("Fault", "id patches calls argvs message")


def _role_triples_with_a_wrong_strip(scaled):
    """hats.role_triples with the y parts divided by the power of two that
    the x parts share, not by their own: a faulty reduction that all three
    criteria routes read."""
    (x0, y0, x1, y1, x2, y2), _ = scaled
    ax, ay, bx, by = x1 - x0, y1 - y0, x2 - x0, y2 - y0
    twice = abs(ax * by - ay * bx)
    k = val2(ax | bx)
    ax, bx, ay, by = ax >> k, bx >> k, ay >> k, by >> k
    edges = ((bx, by, ax, ay), (ax, ay, bx, by), (bx - ax, by - ay, -ax, -ay))
    (h012, h210), (h021, h120), (h102, h201) = (
        hats._edge_hats(twice >> val2(twice), *edge) for edge in edges)
    return h012, h021, h102, h120, h201, h210


def _uniform(triples):
    """Every role triple (i, j, m) mapped to (2j - i, j, m): one bijection
    of triples, so the census's group, role-shift and orbit checks and its
    class counts all still hold.  In the census only the check that each
    hat is its own pointed class sees it, and in canon only the oracle's
    solve of the printed triple."""
    return tuple((2 * j - i, j, m) for i, j, m in triples)

_ISO_CASE, _ORACLE = "dyhat.classify.iso_case", "dyhat.classify.oracle_isomorphic"
_REDUCE = "dyhat.classify.role_triples"
_T135, _T5151 = Hat(1, 3, 5).triangle(), Hat(5, 15, 1).triangle()
#: The message of hats._normalized, which normalize, canonical_form and
#: all_encoding_triples raise when the oracle finds no map to a triple's hat.
_NO_MAP = r"^no unit map carries Triangle\(.+\) with roles \(\d, \d, \d\) to Hat\([^)]+\)$"
_SHIFT_113 = r"^reduction and oracle disagree on Hat\(i=1, j=1, m=3\): case b "
_OWN_131 = r"^reduction does not return Hat\(i=1, j=3, m=1\) as its own pointed class: "
# line 9 of the pinned large pairs is isomorphic, and the x and y parts of
# its triangles share different powers of two
_STRIPPED = (Path(__file__).parent / "fixtures" / "iso_large_pairs.txt").read_text(
    encoding="utf-8").splitlines()[8].split("|")


def _edit(edit, *targets):
    """A fake for each of targets, the dotted names of package functions,
    that returns edit(the real function's result)."""
    return {target: lambda *args, real=pkgutil.resolve_name(target): edit(real(*args))
            for target in targets}


def _self_cases_lie(name, cases, message):
    """iso_case finds cases between Hat(1, 9, 5), whose group is trivial,
    and itself, and the real cases elsewhere: at aut, and in the census's
    (9, 5) cell, which checks each hat's group without automorphism_group."""
    def lie(h1, h2, real=classify.iso_case):
        return cases if tuple(h1) == tuple(h2) == (1, 9, 5) else real(h1, h2)

    return Fault(name, {_ISO_CASE: lie}, ((automorphism_group, Hat(1, 9, 5)), (census, 9, 5)),
                 (["aut", "1", "9", "5"], ["census", "--jmax", "9", "--mmax", "5"]), message)


def _iso_cd(name, patches, cases, oracle):
    """A fault on Hat(1, 3, 5) and Hat(5, 15, 1), which the oracle realizes
    by cases c and d: isomorphic's routes give cases, the oracle oracle."""
    return Fault(name, patches, ((isomorphic, _T135, _T5151),),
                 (["iso", "T 1 3 5", "T 5 15 1"],), _routes_disagree(True, cases, oracle))


def _routes_disagree(verdict, cases, oracle):
    return "^" + re.escape(f"isomorphism routes disagree: canonical {verdict}, overlap "
                           f"{verdict}, cases {list(cases)}, oracle cases {list(oracle)}") + "$"


def _census_permuted(name, order, message):
    """The census's reduction with its six entries in order."""
    return Fault(name, _edit(itemgetter(*order), _REDUCE), ((census, 31, 31),),
                 (["census", "--jmax", "31", "--mmax", "31"],), message)


def _verify_fails(name, edit):
    """normalize with the result of cli._normalized, which it calls once
    per order, edited: the witness that it re-applies before printing it
    must fail."""
    return Fault(name, _edit(edit, "dyhat.cli._normalized"), (),
                 (["normalize", "0,0 1,3 5,0"],),
                 r"^witness for roles ABC failed verification$")


ROWS = (
    # case b claims a swap that the oracle cannot realize, and "abcde"
    # names no subgroup of S3
    _self_cases_lie("self-cases-claim-b", "ab", r"^criteria and oracle disagree on "
                    r"Hat\(i=1, j=9, m=5\): criteria \['a', 'b'\], oracle \['a'\]$"),
    _self_cases_lie("self-cases-name-no-subgroup", "abcde", r"^cases 'abcde' of "
                    r"Hat\(i=1, j=9, m=5\) and itself give no subgroup of S3$"),
    # on an S3 hat, a case route that drops f names no subgroup at all
    Fault("case-route-drops-f", _edit(lambda c: c.replace("f", ""), _ISO_CASE),
          ((automorphism_group, Hat(1, 1, 1)),), (["aut", "1", "1", "1"],),
          r"^cases 'abcde' of Hat\(i=1, j=1, m=1\) and itself give no subgroup of S3$"),
    # a case route that finds none, and one that drops "d": "c" and "d"
    # both hold, so the first letter and the verdict are unchanged
    _iso_cd("case-route-finds-none", {_ISO_CASE: lambda h1, h2: ""}, [], "cd"),
    _iso_cd("case-route-drops-d", _edit(lambda c: c.replace("d", ""), _ISO_CASE), "c", "cd"),
    # an oracle that drops "d", one that denies the isomorphism, and one
    # that reports its first witness under case a, which agrees on
    # existence only
    _iso_cd("oracle-drops-d", _edit(lambda f: (f[0].replace("d", ""), *f[1:]), _ORACLE),
            "cd", "c"),
    _iso_cd("oracle-finds-none", {_ORACLE: lambda t1, t2: None}, "cd", []),
    _iso_cd("oracle-hit-under-a", _edit(lambda f: ("a", CORRESPONDENCES[0], f[2]), _ORACLE),
            "cd", "a"),
    # an oracle that claims an isomorphism where the criteria find none
    Fault("oracle-claims-a", {_ORACLE: lambda t1, t2: ("a", CORRESPONDENCES[0], IDENTITY)},
          ((isomorphic, Hat(3, 27, 21).triangle(), Hat(39, 27, 21).triangle()),),
          (["iso", "T 3 27 21", "T 39 27 21"],), _routes_disagree(False, [], "a")),
    # the three criteria routes agree on "not isomorphic", and the oracle,
    # which sees every verdict, refutes them
    Fault("wrong-strip", {_REDUCE: _role_triples_with_a_wrong_strip},
          ((isomorphic, *map(cli.parse_shape, _STRIPPED)),), (["iso", *_STRIPPED],),
          _routes_disagree(False, [], "e")),
    # each fault keeps every row of census(31, 31), with ok True: only the
    # check that each realized case fixes the role triples sees the first
    # three, and swap-0-5 moves entry 0, the hat's own pointed class
    _census_permuted("swap-2-4", (0, 1, 4, 3, 2, 5), _SHIFT_113),
    _census_permuted("swap-1-3", (0, 3, 2, 1, 4, 5), _SHIFT_113),
    _census_permuted("rotate-1-5", (0, 2, 3, 4, 5, 1), _SHIFT_113),
    _census_permuted("swap-0-5", (5, 1, 2, 3, 4, 0), _OWN_131),
    Fault("uniform-map", _edit(_uniform, "dyhat.hats.role_triples", _REDUCE),
          ((canonical_form, _T135), (all_encoding_triples, _T135), (census, 31, 31)),
          (["canon", "0,0 1,3 5,0"], ["census", "--jmax", "31", "--mmax", "31"]),
          _NO_MAP + "|" + _OWN_131 + r"identity-order triple \[5, 3, 1\]$"),
    Fault("no-witness", {"dyhat.hats.solve_correspondence": lambda src, dst, perm: None},
          ((normalize, _T135), (canonical_form, _T135), (all_encoding_triples, _T135)),
          (["normalize", "T 1 3 5"], ["canon", "T 1 3 5"]), _NO_MAP),
    # normalize re-applies each witness it prints: the right map for a
    # wrong hat, the right hat with its map moved by 2**-40 along x, and
    # the hat stretched 3 times along y with the map that sends the
    # vertices onto it, right images from a map that is not a unit
    _verify_fails("verify-shifted-hat",
                  lambda r: r._replace(hat=Hat(r.hat.i + 2 * r.hat.j, r.hat.j, r.hat.m))),
    _verify_fails("verify-shifted-witness", lambda r: r._replace(
        witness=affine(1, 0, 0, 1, DyadicRational(1, -40)) @ r.witness)),
    _verify_fails("verify-stretched", lambda r: r._replace(
        hat=Hat(r.hat.i, 3 * r.hat.j, r.hat.m), witness=affine(1, 0, 0, 3) @ r.witness)),
)


def _messages(row):
    """(what, message) for each call and argv of row: the message of the
    InconsistencyError that a call raised, or of an argv's exit 5 with
    nothing on stdout and one stderr line; None for a call that returned
    and for an argv that exited 0 or 3 with nothing on stderr; any other
    outcome as itself."""
    for fn, *args in row.calls:
        got = None
        try:
            fn(*args)
        except Exception as err:  # any exception is an outcome to report
            got = str(err) if isinstance(err, InconsistencyError) else err
        yield f"{fn.__name__}{tuple(args)}", got
    for argv in row.argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = cli.run(argv), out.getvalue(), err.getvalue()
        line = re.fullmatch(r"internal inconsistency: (.*)\n", got[2])
        if got[:2] == (5, "") and line:
            got = line[1]
        elif got[0] in (0, 3) and not got[2]:
            got = None
        yield f"dyhat {argv}", got


def check(row):
    """What did not hold of row, as text: without its fault, every outcome
    must be None, and with it, every outcome a message that matches."""
    problems = [f"without the fault, {what} gave {got!r}"
                for what, got in _messages(row) if got is not None]
    with contextlib.ExitStack() as stack:
        for target, fake in row.patches.items():
            stack.enter_context(mock.patch(target, fake))
        faulted = list(_messages(row))
    return problems + [f"with the fault, {what} gave {got!r}" for what, got in faulted
                       if not (isinstance(got, str) and re.search(row.message, got))]


if __name__ == "__main__":
    # every row, with the (file, line) that built each error: a control run
    # that raises is a problem of its row, so every site is a fault's
    sites = []

    def built(self, *args):
        frame = sys._getframe(1)
        sites.append((frame.f_code.co_filename, frame.f_lineno))
        Exception.__init__(self, *args)

    InconsistencyError.__init__ = built
    problems = {row.id: check(row) for row in ROWS}
    print(json.dumps({"optimize": sys.flags.optimize, "problems": problems, "sites": sites}))
