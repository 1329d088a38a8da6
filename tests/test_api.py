"""The public API: what dyhat exports, what the benchmark looks up, and
that the package holds no code that only the tests reach."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import re
import types
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import Phase, given, settings

import dyhat
import dyhat.cli
from dyhat import AffineMap, DyadicRational, EncodingTriple, Hat, Triangle, hat_of, normalize
from dyhat.errors import DomainError, NotDyadic
from dyhat.geometry import Matrix2, Point2
from dyhat.oracle import solve_correspondence

from tutil import _reachable_names

ROOT = Path(__file__).resolve().parents[1]


def _library_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def _public_names() -> set[str]:
    return {
        name for name, value in vars(dyhat).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_exports_are_the_readme_library_list():
    listed = _library_section().split("```", 1)[0]
    items = [line for line in listed.splitlines() if line.startswith("- ")]
    assert set(re.findall(r"`(\w+)`", "\n".join(items))) == _public_names()


def test_readme_library_example_runs():
    example = re.search(r"```python\n(.*?)```", _library_section(), re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})


def test_benchmark_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr in [*tracer.SPAN_TARGETS.values(), *tracer.COUNT_FUNCTIONS.values()]:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for module, cls_name, methods in tracer.COUNT_METHODS.values():
        cls = getattr(importlib.import_module(module), cls_name)
        for method in methods:
            # the counting pass swaps the class's own attribute
            assert callable(cls.__dict__.get(method)), (cls_name, method)


def _dyhat_chains(path: Path) -> set[str]:
    """Every dotted name rooted at dyhat that a file reads, e.g.
    "dyhat.classify.census" for self.dyhat.classify.census."""
    chains = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            names.append(node.id)
        names.reverse()
        if "dyhat" in names[:-1]:
            chains.add(".".join(names[names.index("dyhat"):]))
    return chains


def _resolves(chain: str) -> bool:
    try:
        pkgutil.resolve_name(chain)
    except (ImportError, AttributeError):
        return False
    return True


#: bench/test_bench.py's wrapper test still looks up classify.normalize,
#: which classify does not import: it reduces with role_triples.  That test
#: fails for it (ROADMAP item 1).  Mending it must empty this set.
_STALE_BENCH_CHAINS = {"dyhat.classify.normalize"}


def test_benchmark_attribute_chains_resolve():
    chains = set().union(*map(_dyhat_chains, sorted((ROOT / "bench").glob("*.py"))))
    assert {"dyhat.classify.census", "dyhat.cli.format_dyadic",
            "dyhat.DyadicRational"} <= chains
    assert {c for c in chains if not _resolves(c)} == _STALE_BENCH_CHAINS
    # read off a value, not a chain: bench/test_bench.py is its only caller
    assert callable(DyadicRational.to_fraction)
    assert DyadicRational(5, -11).to_fraction() == Fraction(5, 2048)


#: Reached only from outside the package: the console-script entry point.
_ENTRY_POINTS = {("dyhat.cli", "main")}

#: Read only from outside the package: the version.
_READ_OUTSIDE = {"__version__"}


def _unread_module_names() -> list[str]:
    """Each name, as "dyhat.module.name", that a dyhat module binds by a
    top-level assignment and that no package code reads: read means loaded
    in its own module, or loaded in a module that imports it from there."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(dyhat.__file__).parent.glob("*.py"))}
    loaded = {stem: {node.id for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
              for stem, tree in trees.items()}
    read = {(stem, name) for stem, names in loaded.items() for name in names}
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                read |= {(node.module, alias.name) for alias in node.names
                         if (alias.asname or alias.name) in loaded[stem]}
    unread = []
    for stem, tree in trees.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                if (stem, name) not in read and name not in _READ_OUTSIDE:
                    unread.append(f"dyhat.{stem}.{name}")
    return unread


def test_every_function_and_class_is_reached_from_the_cli_or_an_export():
    # and every other module-level name is read by package code
    seen, reached = set(), _public_names() | {"run"}
    roots = [dyhat.cli.run]
    for name in _public_names():
        value = getattr(dyhat, name)
        members = vars(value).values() if isinstance(value, type) else [value]
        roots += [m.__func__ if isinstance(m, (staticmethod, classmethod)) else m
                  for m in members]
    for root in roots:
        if isinstance(root, types.FunctionType):
            reached |= _reachable_names(root, seen)
    unreached = []
    for info in pkgutil.iter_modules(dyhat.__path__):
        module = importlib.import_module(f"dyhat.{info.name}")
        for name, value in vars(module).items():
            if (isinstance(value, (type, types.FunctionType))
                    and value.__module__ == module.__name__
                    and name not in reached
                    and (module.__name__, name) not in _ENTRY_POINTS):
                unreached.append(f"{module.__name__}.{name}")
    assert unreached + _unread_module_names() == []


def _scopes_where(hit, node: ast.AST, scope: str) -> list[str]:
    """The scopes (module.Class.function) under node that hold a node for
    which hit is true."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    found = [scope] if hit(node) else []
    for child in ast.iter_child_nodes(node):
        found += _scopes_where(hit, child, scope)
    return found


def _scaled_touches(node: ast.AST, scope: str) -> list[str]:
    """The scopes under node that read or write an attribute named _scaled,
    or name it in a string (getattr and kin)."""
    return _scopes_where(
        lambda n: (isinstance(n, ast.Attribute) and n.attr == "_scaled"
                   or isinstance(n, ast.Constant) and n.value == "_scaled"),
        node, scope)


def _terminal_writes(node: ast.AST, scope: str) -> list[str]:
    """The scopes under node that name print, stdout or stderr: a call of
    print, or sys.stdout or sys.stderr read, written or passed on."""
    return _scopes_where(
        lambda n: (isinstance(n, ast.Name) and n.id in ("print", "stdout", "stderr")
                   or isinstance(n, ast.Attribute) and n.attr in ("stdout", "stderr")),
        node, scope)


def test_only_run_and_main_write_to_the_terminal():
    """Each subcommand returns its answer as data: cli.run alone prints an
    answer or a diagnostic, and cli.main only flushes or silences stdout.
    The two are also this test's positive control."""
    found = set()
    for path in sorted(Path(dyhat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.update(_terminal_writes(tree, path.stem))
    assert sorted(found) == ["cli.main", "cli.run"]


def test_only_geometry_touches_the_stored_integers():
    """Triangle and AffineMap keep their integers in _scaled, which geometry
    alone reads or writes: every other module goes through from_scaled and
    scaled_coords()."""
    found = set()
    for path in sorted(Path(dyhat.__file__).parent.glob("*.py")):
        if path.name != "geometry.py":
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            found.update(_scaled_touches(tree, path.stem))
    assert sorted(found) == []
    # positive control: geometry's own class bodies are found
    tree = ast.parse(Path(dyhat.geometry.__file__).read_text(encoding="utf-8"))
    assert {"geometry._Scaled.__eq__", "geometry.Triangle._store"} <= set(
        _scaled_touches(tree, "geometry"))


def test_the_package_holds_no_assert_statement():
    # python -O strips assert statements, so each check in dyhat raises instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(dyhat.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


#: A Point2 or Matrix2 field: the records accept any value, so the
#: constructors that take them must check each field.
_FIELD = st.one_of(st.integers(-3, 7), st.booleans(), st.floats(), st.fractions(),
                   st.none())
_POINT = st.builds(Point2, _FIELD, _FIELD)

#: Values an export may be handed by mistake: three Point2 records of such
#: fields in a tuple, as Triangle takes them (listed first, since Hypothesis
#: draws the early branches more often), one alone, and a Matrix2 of such
#: fields; ints (small, so a census stays cheap, one above the census cell
#: cap, and two of 5,000 digits, past the 4,300 that int-to-str allows by
#: default, which a refusal must not print whole), bools, floats,
#: Fractions, strings and None; and records, with one valid Hat and
#: Triangle.
_ANY_VALUE = st.one_of(
    st.tuples(_POINT, _POINT, _POINT), _POINT, st.builds(Matrix2, *[_FIELD] * 4),
    st.integers(-3, 7), st.just(10**12 + 1), st.sampled_from([10**4999, -10**4999]),
    st.booleans(), st.floats(),
    st.fractions(), st.text(max_size=3), st.none(),
    st.sampled_from([Hat(1, 3, 5), Hat(2, 3, 5), EncodingTriple(1, 3, 5),
                     Hat(3, 7, 1).triangle(), DyadicRational(3, -1)]),
)


def _callables(export) -> list:
    """export, and each public classmethod and staticmethod of a class."""
    return [export, *(getattr(export, attr) for attr, member in vars(export).items()
                      if isinstance(member, (classmethod, staticmethod)) and attr[0] != "_")]


_CLASSES = sorted(name for name in _public_names() if isinstance(getattr(dyhat, name), type))


# each exported function alone, and the exported classes as one group: a
# Hypothesis run costs far more than the calls it makes.  Every example is
# still generated and checked, but a failing one is reported as drawn, not
# shrunk: shrinking these draws could run for minutes
@pytest.mark.parametrize(
    "names", [*([name] for name in sorted(_public_names() - set(_CLASSES))), _CLASSES],
    ids="-".join,
)
@given(data=st.data())
@settings(max_examples=40, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
def test_an_export_returns_or_refuses_a_drawn_value(names, data):
    # one drawn value per parameter without a default
    for fn in (fn for name in names for fn in _callables(getattr(dyhat, name))):
        params = inspect.signature(fn).parameters.values()
        args = [data.draw(_ANY_VALUE) for p in params if p.default is p.empty]
        try:
            fn(*args)
        except DomainError:
            pass
        except TypeError as e:
            # the documented entry check, naming the parameter and its type
            assert re.fullmatch(r"\w+ must be a (Hat|Triangle|Matrix2|Point2|tuple), got \w+",
                                str(e)), (fn, args, e)


def _eight_zeros_then_an_error():
    """Eight zeros, more than any entry point reads, then a RuntimeError: a
    call that reads past its bound ends in that error instead of hanging,
    as it would on an endless iterable."""
    yield from [0] * 8
    raise RuntimeError("read past the eighth item")


_TRI = Hat(1, 3, 5).triangle()


@pytest.mark.parametrize("call, error, message", [
    (lambda it: hat_of(_TRI, it), ValueError, r"roles must be a permutation of \(0, 1, 2\)"),
    (lambda it: normalize(_TRI, it), ValueError, r"roles must be a permutation of \(0, 1, 2\)"),
    (lambda it: solve_correspondence(_TRI, _TRI, it), ValueError,
     r"perm must be a permutation of \(0, 1, 2\)"),
    (lambda it: Triangle.of(it, (1, 0), (0, 1)), NotDyadic,
     r"a vertex must be a Point2 or an \(x, y\) pair, got generator"),
    (lambda it: Triangle.from_scaled(it, 0), NotDyadic, "a triangle needs 6 integers, got 7"),
    (lambda it: AffineMap.from_scaled((it, 0), ((0, 0), 0)), NotDyadic,
     "an affine map needs 4 linear and 2 translation integers, got 7 and 2"),
    (lambda it: AffineMap.from_scaled(it, ((0, 0), 0)), NotDyadic,
     r"an affine map needs \(integers, exponent\) pairs for its linear part and its translation"),
], ids=["hat_of", "normalize", "solve_correspondence", "Triangle.of",
        "Triangle.from_scaled", "AffineMap.from_scaled", "AffineMap.from_scaled-pair"])
def test_an_entry_point_reads_an_iterable_only_to_its_bound(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call(_eight_zeros_then_an_error())
