"""Command-line interface.

Subcommands: invariant, fill, cs, borel, relation, scissors.  Each
``cmd_*`` fills the ``Report`` that ``main`` builds; ``main`` alone emits it
and chooses the exit code: 0 success, 1 a ``NumericFailure``, 2 any other
``BlochError`` (invalid input).  ``--format records`` emits a single JSON
document with a versioned schema tag instead of text.
"""

from __future__ import annotations

import argparse
import json
import sys

import mpmath as mp

from . import __version__
from .errors import BlochError, NumericFailure, TriangulationSyntaxError

# Each command imports the modules it runs, so that a process pays only for
# its own command.

SCHEMA = "blochinv.report/1"


def _digits(precision):
    return max(10, int(precision * 0.30103) - 2)


def _fmt(x, precision):
    return mp.nstr(x, _digits(precision), strip_zeros=False)


class Report:
    """Collects key/value findings; renders as text lines or one JSON doc."""

    def __init__(self, args):
        self.data = {"schema": SCHEMA, "command": args.command,
                     "precision": args.precision}
        self.format = args.format
        self.lines = []

    def add(self, key, value, text=None):
        self.data[key] = value
        self.lines.append("%-22s %s" % (key + ":", text if text is not None
                                        else value))

    def emit(self):
        if self.format == "records":
            print(json.dumps(self.data, default=str, indent=2))
        else:
            for line in self.lines:
                print(line)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise TriangulationSyntaxError(str(exc))


def _is_triangulation(text):
    from .textformat import lines
    # both formats may open with a field header; the next keyword decides
    first = next((key for _, key, _ in lines(text) if key != "field"), None)
    return first in ("tets", "cusps")


def _load_element(path, precision):
    from .prebloch import parse_element
    element, places = parse_element(_read(path), precision=precision)
    if element.is_zero() and element.field is None:
        raise TriangulationSyntaxError("no element data in %s" % path)
    return element, places


# ---------------------------------------------------------------------------

def cmd_invariant(args, rep):
    from .numfield import embeddings
    from .prebloch import (bloch_invariant, is_bloch, serialize_element,
                           six_fold_normalize, volume_of_prebloch)
    text = _read(args.file)
    prec = args.precision
    if _is_triangulation(text):
        from .triang import parse_triangulation
        t = parse_triangulation(text, precision=prec)
        if t.exact_shapes():
            rep.add("field", list(t.field.min_poly))
        element = bloch_invariant(t, precision=prec)
        rep.add("validated", True)
    else:
        element, places = _load_element(args.file, prec)
        element = six_fold_normalize(element)
        if element.field is not None:
            rep.add("field", list(element.field.min_poly))
        if places:
            vols = [volume_of_prebloch(element, embedding=r, precision=prec)
                    for r in places]
            for j, v in enumerate(vols):
                rep.add("volume_place_%d" % j, _fmt(v, prec))
    rep.add("terms", len(element))
    element_lines = serialize_element(element).strip().splitlines()
    rep.add("element", element_lines, text="; ".join(element_lines))
    if element.is_exact():
        cert = is_bloch(element, precision=prec)
        rep.add("bloch_certificate", cert.verdict)
        roots = (embeddings(element.field, prec).complex_pairs
                 if element.field is not None else ())
        for j, root in enumerate(roots):
            v = volume_of_prebloch(element, embedding=root, precision=prec)
            rep.add("volume_embedding_%d" % j, _fmt(v, prec),
                    text="%s (at root %s)" % (_fmt(v, prec),
                                              mp.nstr(root, 12)))
    else:
        v = volume_of_prebloch(element, precision=prec)
        rep.add("volume", _fmt(v, prec))


def _parse_fill_flags(fills):
    out = []
    for f in fills or ():
        if f == "complete":
            out.append(None)
        else:
            try:
                p, q = f.replace(",", " ").split()
                out.append((int(p), int(q)))
            except ValueError:
                raise TriangulationSyntaxError("bad --fill value %r" % f)
    return out


def cmd_fill(args, rep):
    from .surgery import filled_system, newton_solve, solution_volume
    from .triang import parse_triangulation
    prec = args.precision
    t = parse_triangulation(_read(args.file), precision=prec)
    system = filled_system(t, _parse_fill_flags(args.fill) or t.fillings)
    res = newton_solve(system, precision=prec, allow_flat=args.allow_flat)
    rep.add("converged", res.converged)
    rep.add("steps", res.steps)
    rep.add("residual", mp.nstr(res.residual, 8))
    for i, z in enumerate(res.shapes):
        rep.add("shape_%d" % i, _fmt(z, prec))
    for j, lam in enumerate(res.lambdas):
        rep.add("core_length_%d" % j, _fmt(lam, prec))
    rep.add("volume", _fmt(solution_volume(res, precision=prec), prec))


def cmd_cs(args, rep):
    from .chern_simons import (cs_formula, rationalize_mod_pi2, rho_of_cs,
                               solve_flattening)
    from .surgery import filled_system, newton_solve
    from .triang import parse_triangulation
    prec = args.precision
    t = parse_triangulation(_read(args.file), precision=prec)
    shapes = t.validate(precision=prec)
    flat = solve_flattening(t.U, t.d)
    rep.add("flattening", [str(q) for q in flat.c],
            text=" ".join(str(q) for q in flat.c))
    rep.add("flattening_integral", flat.integral)
    if any(t.fillings):
        res = newton_solve(filled_system(t, t.fillings), precision=prec,
                           initial_shapes=shapes,
                           allow_flat=args.allow_flat)
        shapes = res.shapes
        lambdas = res.lambdas
    else:
        lambdas = [mp.mpc(0)] * t.h
    result = cs_formula(shapes, lambdas, flat, precision=prec)
    rep.add("vol", _fmt(result.vol, prec))
    rep.add("cs_representative", _fmt(result.cs_mod_rational, prec))
    probe = rationalize_mod_pi2(result.cs_mod_rational, args.denom_bound, prec)
    rep.add("cs_over_pi2_rational", str(probe) if probe is not None
            else None, text=probe if probe is not None else "NotFound")
    rep.add("denominator_bound", args.denom_bound)
    rep.add("rho_representative",
            _fmt(rho_of_cs(result, precision=prec), prec))
    if args.calibrate_cs is not None:
        with mp.workprec(prec + 16):
            try:
                known = mp.mpf(args.calibrate_cs)
            except ValueError:
                known = mp.nan
            if not mp.isfinite(known):
                raise TriangulationSyntaxError("bad --calibrate-cs value %r"
                                               % args.calibrate_cs)
            if abs(known) >= mp.mpf(2) ** (prec // 2):
                # its residue mod pi^2 is lost at the working precision
                raise TriangulationSyntaxError(
                    "--calibrate-cs value %r is not below 2^%d"
                    % (args.calibrate_cs, prec // 2))
            alpha = (result.vol + mp.mpc(0, 1) * known) - result.value
            q = rationalize_mod_pi2(mp.im(alpha), args.denom_bound, prec)
            rep.add("alpha_fitted_over_pi2", str(q) if q is not None else None,
                    text=q if q is not None else "NotFound")


def cmd_borel(args, rep):
    from .borel import borel_regulator, per_root_values
    prec = args.precision
    for path in args.files:
        element, places = _load_element(path, prec)
        vec = borel_regulator(element, precision=prec, places=places)
        rep.add("places_%s" % path, [mp.nstr(r, 20) for r in vec.places])
        rep.add("regulator_%s" % path, [_fmt(v, prec) for v in vec.values],
                text=" ".join(_fmt(v, prec) for v in vec.values))
        with mp.workprec(prec + 16):
            gal = per_root_values(element, precision=prec)
            rep.add("galois_sum_%s" % path, mp.nstr(mp.fsum(gal), 8))


def cmd_relation(args, rep):
    from .borel import borel_regulator, detect_relation, rank_witness
    prec = args.precision
    vectors = []
    elements = []
    for path in args.files:
        element, places = _load_element(path, prec)
        vectors.append(borel_regulator(element, precision=prec, places=places))
        elements.append(element)
    report = detect_relation(vectors, coefficient_bound=args.bound,
                             precision=prec, elements=elements)
    if report is None:
        rep.add("relation", None, text="None")
    else:
        rep.add("relation", list(report.coefficients))
        rep.add("residual", mp.nstr(report.residual, 8))
        rep.add("confidence", report.confidence)
    rep.add("rank_witness", rank_witness(vectors, precision=prec))


def cmd_scissors(args, rep):
    from .prebloch import volume_of_prebloch
    from .scissors import (cone_decomposition, decomposition_class,
                           parse_polyhedron, polyhedron_class)
    prec = args.precision
    poly = parse_polyhedron(_read(args.file), precision=prec)
    element = polyhedron_class(poly, precision=prec)
    rep.add("vertices", len(poly.vertices))
    rep.add("triangles", len(poly.triangles()))
    rep.add("class_terms", len(element))
    with mp.workprec(prec + 16):
        vols = []
        for apex in range(len(poly.vertices)):
            e = decomposition_class(poly, cone_decomposition(poly, apex), prec)
            vols.append(volume_of_prebloch(e, precision=prec))
        spread = max(vols) - min(vols)
        if not spread < mp.mpf(2) ** -(prec // 2):
            raise NumericFailure("apex volumes spread %s"
                                 % mp.nstr(spread, 8))
        rep.add("volume", _fmt(vols[0], prec))
        rep.add("apex_independence_spread", mp.nstr(spread, 8))
        rep.add("apex_independent", True)


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a command-line error as one ``invalid input:`` line, exit 2;
    subparsers are made of the same class."""

    def error(self, message):
        self.exit(2, "invalid input: %s\n" % message)


def _positive(text):
    """A bound argument: an integer of at least 1."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("expected a positive integer, got %r"
                                     % text)


def build_parser():
    ap = _Parser(
        prog="blochinv",
        description="Bloch invariants, Chern-Simons values and Borel "
                    "regulators from ideal-triangulation data.")
    ap.add_argument("--version", action="version", version=__version__)
    ap.add_argument("--precision", type=int, default=256,
                    help="working precision in bits (default 256)")
    ap.add_argument("--denom-bound", type=_positive, default=120,
                    help="denominator bound for mod-pi^2-Q reconstruction")
    ap.add_argument("--format", choices=("text", "records"), default="text")
    ap.add_argument("--allow-flat", action="store_true",
                    help="admit flat (real-shape) solutions in solves")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariant", help="Bloch invariant report")
    p.add_argument("file")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("fill", help="Dehn filling solve")
    p.add_argument("file")
    p.add_argument("--fill", action="append",
                   help="per-cusp filling 'p,q' or 'complete' "
                        "(default: the file's fill lines)")
    p.set_defaults(func=cmd_fill)

    p = sub.add_parser("cs", help="volume + Chern-Simons report")
    p.add_argument("file")
    p.add_argument("--calibrate-cs", default=None,
                   help="known CS value fixing the constant alpha, "
                        "below 2^(precision/2) in size")
    p.set_defaults(func=cmd_cs)

    p = sub.add_parser("borel", help="Borel regulator vectors")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_borel)

    p = sub.add_parser("relation", help="integer-relation detection")
    p.add_argument("files", nargs="+")
    p.add_argument("--bound", type=_positive, default=64,
                   help="coefficient bound for the relation search")
    p.set_defaults(func=cmd_relation)

    p = sub.add_parser("scissors", help="polyhedron class report")
    p.add_argument("file")
    p.set_defaults(func=cmd_scissors)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.precision < 64:
        ap.error("precision must be at least 64 bits")
    rep = Report(args)
    try:
        args.func(args, rep)
    except NumericFailure as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return 1
    except BlochError as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return 2
    rep.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
