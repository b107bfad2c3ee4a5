"""Contracts that hold across the library: results do not depend on the
ambient mpmath precision, no module imports a name it never uses, each
module imports only the package modules below it in its layer, and no
module defines a helper or a method that nothing reads."""

import ast
import hashlib
import importlib.resources
import random
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

import blochinv
from blochinv import dilog, numfield, surgery
from blochinv.borel import (RegulatorVector, borel_regulator, detect_relation,
                            per_root_values, rank_witness)
from blochinv.chern_simons import (cs_formula, rationalize_mod_pi2, rho_of_cs,
                                   solve_flattening)
from blochinv.dilog import bloch_wigner, li2, rogers
from blochinv.errors import BlochError
from blochinv.numfield import NumberField, embeddings
from blochinv.prebloch import (BlochCertificate, Infinity, PreBlochElement,
                               bloch_invariant, cross_ratio, five_term,
                               is_bloch, multiplicative_relations,
                               parse_element, six_fold_normalize,
                               volume_of_prebloch, wedge)
from blochinv.scissors import parse_polyhedron, polyhedron_class
from blochinv.surgery import (core_length, filled_system, newton_solve,
                              solution_volume)
from blochinv.triang import Triangulation, parse_triangulation

P = 128
Z = mp.mpc("0.3", "0.8")
W = mp.mpc("-1.7", "0.2")
REFLECTED, SMALL = mp.mpc("0.8", "0.3"), mp.mpc("0.1", "-0.15")
WEEKS = NumberField([1, -1, 0, 1])
THETA = WEEKS.gen()
GAUSS = NumberField([1, 0, 1])
GAUSS_POINTS = [GAUSS.element(c) for c in ([0, 1], [1, 0], [-1, 2],
                                           [Fraction(1, 3), -1])]


def _fixture(name):
    return importlib.resources.files("blochinv").joinpath(
        "fixtures/" + name).read_text()


FIG8 = parse_triangulation(_fixture("figure_eight.tri"), precision=P)
# the same triangulation with the exact shapes of Q(sqrt -3)
EISENSTEIN = NumberField([1, -1, 1])
EXACT_FIG8 = Triangulation(2, 1, [EISENSTEIN.gen()] * 2, FIG8.U, FIG8.d,
                           field=EISENSTEIN)
SYSTEM = filled_system(FIG8, [(5, 1)])
SOLVED = newton_solve(SYSTEM, precision=P)
FLAT = solve_flattening(FIG8.U, FIG8.d)
SHAPES = FIG8.validate(P)
CS = cs_formula(SHAPES, [0], FLAT, P)
ELEMENT = PreBlochElement([(WEEKS.gen(), 2), (WEEKS.gen() + 1, -1)],
                          field=WEEKS)
NUMERIC = PreBlochElement([(Z, 1), (W, -2), (1 / Z, 3)])
VECTORS = [[mp.mpf(1) / 3, mp.mpf(2) / 7], [mp.mpf(2) / 3, mp.mpf(4) / 7],
           [mp.mpf(1) / 5, mp.mpf(1)]]
BETA1_TEXT = _fixture("example2_beta1.bloch")
BETA1, _ = parse_element(BETA1_TEXT, precision=P)
OCTAHEDRON = parse_polyhedron(_fixture("octahedron.poly"), precision=P)
# a square pyramid whose vertices 3 and 4 tie in their real parts at 53
# bits, not at P: its apex is vertex 3, and coning from vertex 4 gives
# another class
TIED = parse_polyhedron("""vertex 0 inf
vertex 1 1 0
vertex 2 0 1
vertex 3 -1.0000000000000000000000001 0.5
vertex 4 -1 -0.5
face 0 1 2
face 0 2 3
face 0 3 4
face 0 4 1
face 1 4 3 2
diag 4 1 3
""", precision=P)
with mp.workprec(P + 64):
    ELEVEN_48 = mp.pi ** 2 * 11 / 48

CALLS = {
    # the series, reflection and |z| < 1/4 branches
    "li2": lambda: (li2(Z, P), li2(REFLECTED, P), li2(SMALL, P)),
    "bloch_wigner": lambda: bloch_wigner(Z, P),
    "rogers": lambda: rogers(W, P),
    "cross_ratio": lambda: (cross_ratio(mp.mpc(0), mp.mpc(1), Z, W, P),
                            cross_ratio(Infinity, mp.mpc(0), Z, W, P),
                            cross_ratio(mp.mpc(0), Infinity, Z, W, P),
                            cross_ratio(mp.mpc(0), Z, Infinity, W, P),
                            cross_ratio(mp.mpc(0), Z, W, Infinity, P),
                            cross_ratio(*GAUSS_POINTS, P)),
    "cs_formula": lambda: (cs_formula(SHAPES, [0], FLAT, P),
                           cs_formula(SOLVED.shapes, SOLVED.lambdas, FLAT, P)),
    "rho_of_cs": lambda: rho_of_cs(CS, P),
    "rationalize_mod_pi2": lambda: rationalize_mod_pi2(ELEVEN_48, 120, P),
    "newton_solve": lambda: newton_solve(SYSTEM, precision=P),
    "core_length": lambda: core_length(SOLVED, 0),
    "solution_volume": lambda: solution_volume(SOLVED),
    "volume_of_prebloch": lambda: volume_of_prebloch(ELEMENT, precision=P),
    "borel_regulator": lambda: borel_regulator(ELEMENT, P),
    "rank_witness": lambda: rank_witness(VECTORS, P),
    "validate": lambda: FIG8.validate(P),
    "validate_exact": lambda: EXACT_FIG8.validate(P),
    "numeric_shapes_exact": lambda: EXACT_FIG8.numeric_shapes(P),
    "is_bloch": lambda: (is_bloch(five_term(THETA, THETA + 1), P),
                         is_bloch(BETA1, P)),
    "multiplicative_relations": lambda: multiplicative_relations(
        [THETA, THETA + 1, 1 - THETA, THETA ** 2], P),
    "embeddings": lambda: [(es.real_roots, es.complex_pairs) for es in
                           (embeddings(WEEKS, P), embeddings(EISENSTEIN, P))],
    "five_term": lambda: five_term(Z, W, P),
    "six_fold_normalize": lambda: (six_fold_normalize(NUMERIC),
                                   six_fold_normalize(ELEMENT)),
    "parse_element": lambda: (parse_element(BETA1_TEXT, P),
                              parse_element("1 * (0.3 0.8)\n", P)),
    "per_root_values": lambda: per_root_values(ELEMENT, P),
    "detect_relation": lambda: detect_relation(VECTORS, precision=P),
    "polyhedron_class": lambda: (polyhedron_class(OCTAHEDRON, P),
                                 polyhedron_class(TIED, P)),
    "bloch_invariant": lambda: (bloch_invariant(FIG8, P),
                                bloch_invariant(EXACT_FIG8, P)),
}


def _raw(x):
    """The raw libmp bits of x, elementwise through tuples, lists, regulator
    vectors, certificates and pre-Bloch elements; other objects as they
    are."""
    if isinstance(x, RegulatorVector):
        return _raw((x.places, x.values))
    if isinstance(x, BlochCertificate):
        return (x.verdict, x.wedge.matrix,
                [(r.exponents, getattr(r.unity, "coeffs", r.unity))
                 for r in x.relations])
    if isinstance(x, PreBlochElement):
        return (x.field, _raw(list(x.terms.items())))
    if isinstance(x, mp.mpf):
        return x._mpf_
    if isinstance(x, mp.mpc):
        return x._mpc_
    if isinstance(x, (list, tuple)):
        return tuple(_raw(v) for v in x)
    return x


def _fresh():
    """Forget every memoised value, so that each call computes afresh."""
    dilog._record.cache_clear()
    dilog._bernoulli_table.cache_clear()
    for memo in (surgery._damped, surgery._evaluate, surgery._step):
        memo.cache_clear()
    numfield._EMBEDDINGS.clear()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_results_ignore_ambient_precision(name):
    # precision is an explicit argument, never ambient state
    results = []
    for ambient in (53, 1000):
        _fresh()
        with mp.workprec(ambient):
            results.append(_raw(CALLS[name]()))
    _fresh()
    assert results[0] == results[1]


# SHA-256 of the raw bits at the exact/numeric boundary (see
# _boundary_outcomes), recorded while exact elements were evaluated through
# FieldElement.evaluate, per_root_values had its own D2 loop and
# cross_ratio a branch for each slot of infinity
BOUNDARY_BITS = ("3287ff142fc8c2d2aa7a583c15fe7906"
                 "ad1daa0c0863659209b9f060c428091d")
QUARTIC = [1, -1, 1, 0, 1]


def _cross_ratio_points(rng):
    """Four distinct seeded points of each kind: mpc with bits down to
    2^-400, Fractions, and elements of Q(i)."""
    def frac():
        return Fraction(rng.randint(-99, 99), rng.randint(1, 40))
    with mp.workprec(400):
        numeric = [mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
                   * (1 + mp.mpf(rng.getrandbits(300)) / 2 ** 330)
                   for _ in range(4)]
    return [numeric, [frac() for _ in range(4)],
            [GAUSS.element([frac(), frac()]) for _ in range(4)]]


def _field_outcome(poly):
    """r1 of the field of poly, or the error it raises."""
    try:
        return NumberField(poly).r1
    except BlochError as exc:
        return type(exc).__name__, str(exc)


def _boundary_outcomes():
    """Every value the exact/numeric boundary hands on: D2 sums of the
    .bloch fixtures at their places and at every root, the exact
    figure-eight's shapes, embeddings and polished place lines, cross
    ratios with infinity in each slot, flattenings, zero elements'
    certificates and NumberField outcomes on seeded polynomials."""
    out = []
    for prec in (128, 256):
        for name in ("example2_beta1.bloch", "example2_beta2.bloch",
                     "weeks_element.bloch"):
            element, places = parse_element(_fixture(name), precision=prec)
            roots = embeddings(element.field, prec).all_roots()
            out += [places, per_root_values(element, prec),
                    borel_regulator(element, prec),
                    borel_regulator(element, prec, places)]
            out += [volume_of_prebloch(element, r, prec)
                    for r in places + roots]
        out.append(volume_of_prebloch(ELEMENT, precision=prec))
        for poly in ([1, 0, 1], [1, -1, 0, 1], QUARTIC):
            es = embeddings(NumberField(poly), prec)
            out += [es.real_roots, es.complex_pairs, es.all_roots()]
    out += [EXACT_FIG8.numeric_shapes(prec) for prec in (128, 256, 512)]
    rng = random.Random(32)
    for _ in range(3):
        for pts in _cross_ratio_points(rng):
            for prec in (128, 256):
                out.append(cross_ratio(*pts, precision=prec))
                for slot in range(4):
                    at_inf = pts[:slot] + [Infinity] + pts[slot + 1:]
                    out.append(cross_ratio(*at_inf, precision=prec))
    for name in ("figure_eight.tri", "example3.tri"):
        t = parse_triangulation(_fixture(name), precision=P)
        out.append(solve_flattening(t.U, t.d))
    for zero in (PreBlochElement(), PreBlochElement(field=GAUSS),
                 PreBlochElement(field=WEEKS)):
        out += [is_bloch(zero, P), wedge(zero, P).matrix]
    rng = random.Random(32)
    for _ in range(40):
        poly = [rng.randint(-9, 9) for _ in range(rng.randint(2, 6))] + [1]
        root = rng.randint(-5, 5)
        times_root = [b - root * a for a, b in zip(poly + [0], [0] + poly)]
        out += [_field_outcome(poly), _field_outcome(times_root)]
    return out


def test_boundary_bits_pinned():
    out = repr(_raw(_boundary_outcomes()))
    assert hashlib.sha256(out.encode()).hexdigest() == BOUNDARY_BITS


def test_no_module_reads_ambient_precision():
    # the static half of the contract above: no module reads mp.prec or
    # mp.dps, bare or through mp.mp
    package = Path(blochinv.__file__).parent
    found = {path.name: [node.lineno for node in ast.walk(
        ast.parse(path.read_text())) if isinstance(node, ast.Attribute)
        and node.attr in ("prec", "dps")
        and ast.unparse(node.value) in ("mp", "mp.mp", "mpmath", "mpmath.mp")]
        for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _unused_imports(path):
    """The names a module imports and never references, except on lines
    marked ``# noqa: F401``."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            span = lines[node.lineno - 1:node.end_lineno]
            if any("# noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def _private_definitions(tree):
    """Module-level functions, classes and assignments named ``_x``."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names += [t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
    return [name for name in names
            if name.startswith("_") and not name.endswith("__")]


def _loaded_names(tree):
    """Every name a module reads, bare or as an attribute."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def test_no_unused_imports():
    # also: every private module-level helper is read somewhere in the
    # package, so none outlives its last caller
    package = Path(blochinv.__file__).parent
    unused = {path.name: _unused_imports(path)
              for path in sorted(package.glob("*.py"))
              if path.name != "__init__.py"}
    assert {name: found for name, found in unused.items() if found} == {}
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    loaded = set().union(*map(_loaded_names, trees.values()))
    dead = {name: [d for d in _private_definitions(tree) if d not in loaded]
            for name, tree in trees.items()}
    assert {name: found for name, found in dead.items() if found} == {}
    # every method of a package class, but for the dunders, is read in the
    # package or in its tests
    read = loaded.union(*(_loaded_names(ast.parse(path.read_text()))
                          for path in Path(__file__).parent.glob("*.py")))
    unread = {name: [cls.name + "." + node.name for cls in ast.walk(tree)
                     if isinstance(cls, ast.ClassDef) for node in cls.body
                     if isinstance(node, ast.FunctionDef)
                     and not node.name.endswith("__")
                     and node.name not in read]
              for name, tree in trees.items()}
    assert {name: found for name, found in unread.items() if found} == {}
    # the modules that export nothing serve the package: each of their
    # public functions and classes is read in it
    internal = ("lattice", "textformat", "errors")
    assert not set(internal) & set(blochinv._EXPORTS)
    unread = {name: [node.name for node in trees[name + ".py"].body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     and node.name not in loaded]
              for name in internal}
    assert {name: found for name, found in unread.items() if found} == {}


# the package modules each library module imports: dilog is a leaf over
# errors, and triang builds no pre-Bloch element (prebloch.bloch_invariant
# does)
LAYERS = {
    "errors": set(),
    "lattice": set(),
    "dilog": {"errors"},
    "numfield": {"errors"},
    "textformat": {"errors", "numfield"},
    "prebloch": {"dilog", "errors", "lattice", "numfield", "textformat"},
    "triang": {"dilog", "errors", "lattice", "numfield", "textformat"},
    "surgery": {"dilog", "errors", "lattice"},
    "chern_simons": {"dilog", "errors", "lattice"},
    "borel": {"dilog", "errors", "lattice", "numfield", "prebloch"},
    "scissors": {"errors", "prebloch", "textformat"},
}


def test_import_layering():
    # cli imports per command (test_cli pins what each command loads); no
    # other module imports inside a function
    package = Path(blochinv.__file__).parent
    trees = {path.stem: ast.parse(path.read_text())
             for path in package.glob("*.py")}
    assert set(trees) - set(LAYERS) == {"__init__", "cli"}
    found = {}
    for name in LAYERS:
        found[name] = set()
        for node in ast.walk(trees[name]):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found[name].update([node.module] if node.module else
                                   [alias.name for alias in node.names])
    assert found == LAYERS
    nested = {name: [node.lineno for fn in ast.walk(tree)
                     if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                     for node in ast.walk(fn)
                     if isinstance(node, (ast.Import, ast.ImportFrom))]
              for name, tree in trees.items() if name != "cli"}
    assert {name: lines for name, lines in nested.items() if lines} == {}


def test_cli_main_owns_report_and_exit_code():
    # every cmd_* only fills the report that cli.main builds: none returns
    # a value or emits, and NumericFailure alone marks an exit 1, with no
    # second list of numeric errors anywhere in the package
    package = Path(blochinv.__file__).parent
    commands = [node for node in ast.parse((package / "cli.py").read_text())
                .body if isinstance(node, ast.FunctionDef)
                and node.name.startswith("cmd_")]
    assert len(commands) == 6
    found = {cmd.name: [node.lineno for node in ast.walk(cmd)
                        if isinstance(node, ast.Return)
                        and node.value is not None
                        or isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "emit"]
             for cmd in commands}
    assert {name: lines for name, lines in found.items() if lines} == {}
    defined = {name for path in package.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               for name in ([node.id] if isinstance(node, ast.Name)
                            and isinstance(node.ctx, ast.Store) else
                            [node.name] if isinstance(
                                node, (ast.FunctionDef, ast.ClassDef))
                            else [])}
    assert "_NUMERIC_ERRORS" not in defined
