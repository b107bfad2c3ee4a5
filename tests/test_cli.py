import contextlib
import hashlib
import importlib
import importlib.resources
import io
import itertools
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tempfile

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

import blochinv
from blochinv import cli, errors, numfield
from blochinv.cli import main
from blochinv.dilog import bloch_wigner
from blochinv.triang import parse_triangulation


def fx(name):
    return str(importlib.resources.files("blochinv").joinpath("fixtures/" + name))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_invariant_weeks_element(capsys):
    code, out, _ = run(capsys, "invariant", fx("weeks_element.bloch"))
    assert code == 0
    assert "CertifiedZero" in out
    assert "0.9427073627769277209212996030922116475903271057668" in out


def test_invariant_beta1_element(capsys):
    code, out, _ = run(capsys, "invariant", fx("example2_beta1.bloch"))
    assert code == 0
    assert "CertifiedZero" in out
    assert "3.16396322888314398399101471597315448481278767151" in out


def test_invariant_triangulation_records(capsys):
    code, out, _ = run(capsys, "--format", "records", "invariant",
                       fx("figure_eight.tri"))
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "blochinv.report/1"
    assert doc["validated"] is True
    assert doc["volume"].startswith("2.029883212819307250")


def test_invariant_corrupted_shapes(tmp_path, capsys):
    text = importlib.resources.files("blochinv").joinpath(
        "fixtures/figure_eight.tri").read_text()
    bad = text.replace("shape 0 0.5", "shape 0 0.51")
    p = tmp_path / "bad.tri"
    p.write_text(bad)
    code, _, err = run(capsys, "invariant", str(p))
    assert code == 2
    assert "invalid" in err


def test_fill_complete_matches_invariant(capsys):
    code, out, _ = run(capsys, "--precision", "128", "fill",
                       fx("figure_eight.tri"))
    assert code == 0
    assert "2.0298832128193072" in out


def test_fill_noncoprime_usage_error(capsys):
    code, _, err = run(capsys, "fill", fx("figure_eight.tri"),
                       "--fill", "2,4")
    assert code == 2


@pytest.mark.parametrize("flag", ["5", "5,x"])
def test_fill_malformed_flag_exit_2(capsys, flag):
    code, _, err = run(capsys, "fill", fx("figure_eight.tri"), "--fill", flag)
    assert code == 2
    assert err.startswith("invalid input:")


def test_cs_figure_eight(capsys):
    code, out, _ = run(capsys, "--precision", "192", "cs",
                       fx("figure_eight.tri"))
    assert code == 0
    assert "2.02988321281930725" in out
    # calibrating against the true CS = 0 fits alpha in (i pi^2 / 12) Z
    code, out, _ = run(capsys, "--precision", "192", "cs",
                       fx("figure_eight.tri"), "--calibrate-cs", "0")
    assert code == 0
    assert "alpha_fitted_over_pi2: 1/3" in out



def test_cs_evaluates_each_shape_once(monkeypatch, capsys):
    # vol, the CS representative and the rho representative share one
    # cs_formula evaluation: one li2 per shape of figure_eight.tri
    from blochinv import chern_simons, dilog
    calls = {"cs_formula": 0, "li2": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    cs_formula = counting("cs_formula", chern_simons.cs_formula)
    monkeypatch.setattr(chern_simons, "cs_formula", cs_formula)
    monkeypatch.setattr(dilog, "li2", counting("li2", dilog.li2))
    code, out, _ = run(capsys, "--format", "records", "cs",
                       fx("figure_eight.tri"))
    assert code == 0 and "rho_representative" in out
    assert calls == {"cs_formula": 1, "li2": 2}

# Printed digits of fill and cs on figure_eight.tri.  The shapes' logs may
# move in their guard bits only: a move that reaches a printed digit fails.
_FILL_VOLUMES = {
    128: {
        (5, 1): "0.981368828892232088091452189794427068",
        (-7, 3): "1.80582721357314701633733993032357993",
        (11, 6): "1.96780500563498879162111177018631318",
    },
    256: {
        (5, 1): "0.981368828892232088091452189794427068238164321906312438"
                 "642604199777420481646",
        (-7, 3): "1.805827213573147016337339930323579932721857329543391762"
                  "20547902253584904202",
        (11, 6): "1.967805005634988791621111770186313180514612265580669015"
                 "90434581319933465276",
    },
    512: {
        (5, 1): "0.981368828892232088091452189794427068238164321906312438"
                 "64260419977742048164621596200774346560862297092447715945"
                 "093284766118998797412169716604388205450697",
        (-7, 3): "1.805827213573147016337339930323579932721857329543391762"
                  "20547902253584904202029387280424784948044147855844187804"
                  "43174977422921881849701647194007426605599",
        (11, 6): "1.967805005634988791621111770186313180514612265580669015"
                 "90434581319933465276116650377646367017651499588999396254"
                 "38910095714272157978147742896534369457287",
    },
}
_CS_FIGURE_EIGHT = {
    128: {
        "vol":
            "2.02988321281930725004240510854904057",
        "cs_representative":
            "-3.28986813369645287294483033329205038",
        "rho_representative":
            "(0.166666666666666666666666666666666667 + 0.102835084889"
            "281817514234600702240894j)",
    },
    256: {
        "vol":
            "2.029883212819307250042405108549040571883378615060599584"
            "03497821354142044338",
        "cs_representative":
            "-3.28986813369645287294483033329205037843789980241359687"
            "547111645871962089276",
        "rho_representative":
            "(0.16666666666666666666666666666666666666666666666666666"
            "6666666666665633492123 + 0.10283508488928181751423460070"
            "2240894409820528339440946056916257157673211230j)",
    },
    512: {
        "vol":
            "2.029883212819307250042405108549040571883378615060599584"
            "03497821354142044338499474516591515384455469453649468313"
            "50723800635092384082022484199122880770299",
        "cs_representative":
            "-3.28986813369645287294483033329205037843789980241359687"
            "54711164587196208927564716589465036991961741383938850318"
            "099178564866011694611777016108058427738230",
        "rho_representative":
            "(0.16666666666666666666666666666666666666666666666666666"
            "66666666666656334921228278531508700410332006419288775348"
            "7203573428541669990606149340787135841707746 + 0.10283508"
            "48892818175142346007022408944098205283394409460569162571"
            "57673211229620943070336344745877102630328680056700944408"
            "49787658468220788200550038390252j)",
    },
}


@pytest.mark.parametrize("prec", [128, 256, 512])
def test_printed_digits_pinned(capsys, prec):
    for slope, volume in _FILL_VOLUMES[prec].items():
        code, out, _ = run(capsys, "--precision", str(prec), "--format",
                           "records", "fill", fx("figure_eight.tri"),
                           "--fill=%d,%d" % slope)
        assert code == 0 and json.loads(out)["volume"] == volume, slope
    code, out, _ = run(capsys, "--precision", str(prec), "--format",
                       "records", "cs", fx("figure_eight.tri"))
    doc = json.loads(out)
    assert code == 0
    assert {k: doc[k] for k in doc if k in _CS_FIGURE_EIGHT[prec]} == \
        _CS_FIGURE_EIGHT[prec]


# The 15 command/fixture calls of the cli-cold benchmark workload, with
# fixture paths relative to the package directory.
_CLI_PIN_CALLS = (
    [["invariant", "fixtures/" + f] for f in (
        "figure_eight.tri", "example3.tri", "weeks_element.bloch",
        "example2_beta1.bloch", "example2_beta2.bloch")]
    + [["fill", "fixtures/figure_eight.tri"],
       ["fill", "fixtures/figure_eight.tri", "--fill", "5,1"],
       ["cs", "fixtures/figure_eight.tri"], ["cs", "fixtures/example3.tri"],
       ["borel"] + ["fixtures/" + f for f in (
           "weeks_element.bloch", "example2_beta1.bloch",
           "example2_beta2.bloch")],
       ["relation", "fixtures/example2_beta1.bloch",
        "fixtures/example2_beta2.bloch"]]
    + [["scissors", "fixtures/" + f] for f in (
        "octahedron.poly", "square_pyramid.poly", "tetrahedron.poly",
        "flat_quadrilateral.poly")])

# SHA-256 of (argv, exit code, stdout, stderr) of each of those calls in
# --format records at 128, 256 and 512 bits; re-recorded when the Newton
# ladder's rungs moved, which changed four fill residuals and nothing else
CLI_RECORDS_BITS = (
    "f1eddf5e594aa34329c7e179b6e52ab38c6a9555f31468db8293feef76eb6593")


def test_cli_records_pinned(monkeypatch, capsys):
    monkeypatch.chdir(str(importlib.resources.files("blochinv")))
    runs = []
    for bits in (128, 256, 512):
        for argv in _CLI_PIN_CALLS:
            argv = ["--precision", str(bits), "--format", "records"] + argv
            runs.append((argv,) + run(capsys, *argv))
    assert hashlib.sha256(repr(runs).encode()).hexdigest() == CLI_RECORDS_BITS


def test_cs_example3_rational_probe(capsys):
    code, out, _ = run(capsys, "--precision", "192", "cs", fx("example3.tri"))
    assert code == 0
    assert "-1/6" in out
    assert "1.8319311883544380301092070298647682215482987" in out


def test_borel_prints_published_pairs(capsys):
    code, out, _ = run(capsys, "borel", fx("example2_beta1.bloch"),
                       fx("example2_beta2.bloch"))
    assert code == 0
    assert "3.16396322888314398399101471597315448481278767151" in out
    assert "-1.41510489726556334068950858771050203613466795960" in out
    assert "-0.6985440827844407197307266120368427639773667053" in out
    assert "3.82168758617997773911092222429038551682130249550" in out


def test_borel_shares_one_field_across_files(monkeypatch, capsys):
    # the two example2 files share one quartic field, Weeks has a cubic one
    numfield._EMBEDDINGS.clear()
    calls = []
    polyroots = mp.polyroots
    monkeypatch.setattr(mp, "polyroots",
                        lambda *a, **kw: calls.append(1) or polyroots(*a, **kw))
    code, _, _ = run(capsys, "borel", fx("example2_beta1.bloch"),
                     fx("example2_beta2.bloch"), fx("weeks_element.bloch"))
    assert code == 0
    assert len(calls) == 2


def test_relation_duplicate_inputs(capsys):
    code, out, _ = run(capsys, "relation", fx("example2_beta1.bloch"),
                       fx("example2_beta1.bloch"))
    assert code == 0
    assert "[1, -1]" in out
    assert "ExactInputVerified" in out


def test_relation_none(capsys):
    code, out, _ = run(capsys, "relation", fx("example2_beta1.bloch"),
                       fx("example2_beta2.bloch"))
    assert code == 0
    assert "relation:              None" in out
    assert "rank_witness:          2" in out


def test_relation_totally_real_field_rank_0(tmp_path, capsys):
    # Q(sqrt 2) has no complex place: the regulator vectors are empty and
    # span rank 0
    a, b = tmp_path / "a.bloch", tmp_path / "b.bloch"
    a.write_text("field 2 -2 0 1\n1 * [1 1]\n")
    b.write_text("field 2 -2 0 1\n2 * [3 1]\n")
    code, out, _ = run(capsys, "relation", str(a), str(b))
    assert code == 0
    assert "rank_witness:          0" in out


def test_scissors_octahedron(capsys):
    code, out, _ = run(capsys, "--precision", "128", "scissors",
                       fx("octahedron.poly"))
    assert code == 0
    assert "3.6638623767088760" in out
    assert "apex_independent:      True" in out


@pytest.mark.parametrize("precision", [256, 512])
def test_scissors_spread_at_requested_precision(tmp_path, capsys, precision):
    # dyadic vertices: the cross ratios must still be taken at the precision
    p = tmp_path / "tet.poly"
    p.write_text("vertex 0 inf\nvertex 1 0 0\nvertex 2 1 0\nvertex 3 3 1\n"
                 "face 1 2 3\nface 0 3 2\nface 0 1 3\nface 0 2 1\n")
    code, out, _ = run(capsys, "--precision", str(precision), "--format",
                       "records", "scissors", str(p))
    assert code == 0
    spread = mp.mpf(json.loads(out)["apex_independence_spread"])
    assert spread < mp.mpf(2) ** (-precision + 8)


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_scissors_apex_spread_exit_1(monkeypatch, capsys, fmt):
    # apex volumes that disagree are a numeric failure like any other:
    # nothing on stdout and one stderr line
    from blochinv import prebloch
    volumes = itertools.count()
    monkeypatch.setattr(prebloch, "volume_of_prebloch",
                        lambda *args, **kwargs: mp.mpf(next(volumes)))
    code, out, err = run(capsys, "--format", fmt, "scissors",
                         fx("octahedron.poly"))
    assert (code, out) == (1, "")
    assert err == "numeric failure: apex volumes spread 5.0\n"


def test_scissors_square_pyramid(capsys):
    code, out, _ = run(capsys, "--precision", "128", "scissors",
                       fx("square_pyramid.poly"))
    assert code == 0
    assert "apex_independent:      True" in out


@pytest.mark.parametrize("name", ["octahedron.poly", "square_pyramid.poly",
                                  "tetrahedron.poly",
                                  "flat_quadrilateral.poly"])
def test_scissors_triangulates_each_face_once(monkeypatch, capsys, name):
    # the faces are triangulated when the polyhedron is built, and the
    # command builds it once
    from blochinv import scissors
    calls = []
    triangulate = scissors._triangulate_cycle
    monkeypatch.setattr(scissors, "_triangulate_cycle",
                        lambda *a: calls.append(a) or triangulate(*a))
    scissors.parse_polyhedron(pathlib.Path(fx(name)).read_text())
    built = len(calls)
    del calls[:]
    code, _, _ = run(capsys, "scissors", fx(name))
    assert code == 0
    assert len(calls) == built


def test_empty_file_exit_2(tmp_path, capsys):
    p = tmp_path / "empty.tri"
    p.write_text("")
    code, _, err = run(capsys, "invariant", str(p))
    assert code == 2


def test_header_only_element_is_zero_over_its_field(tmp_path, capsys):
    # serialize_element writes an element whose terms all cancelled as its
    # field header alone; reading it back gives the same zero element
    header, cancelled = tmp_path / "header.bloch", tmp_path / "cancel.bloch"
    header.write_text("field 2 1 0 1\n")
    cancelled.write_text("field 2 1 0 1\n1 * [0 1]\n-1 * [0 1]\n")
    code, out, _ = run(capsys, "invariant", str(header))
    assert code == 0 and "CertifiedZero" in out
    assert run(capsys, "invariant", str(cancelled))[1] == out


def test_rational_element_certified_with_or_without_field(tmp_path, capsys):
    # is_bloch certifies rational elements without a field: a .bloch file
    # of rational terms gets its certificate whether or not a field line
    # declares Q
    body = "1 * [2]\n1 * [-1]\n1 * [1/2]\n"
    bare, over_q = tmp_path / "bare.bloch", tmp_path / "over_q.bloch"
    bare.write_text(body)
    over_q.write_text("field 1 0 1\n" + body)
    verdicts = []
    for path in (bare, over_q):
        code, out, _ = run(capsys, "--format", "records", "invariant",
                           str(path))
        assert code == 0
        verdicts.append(json.loads(out).get("bloch_certificate"))
    assert verdicts == ["CertifiedZero"] * 2


def test_reducible_field_with_large_root_exit_2(tmp_path, capsys):
    # x^2 - N^2 with N = (2^89 - 1)(2^107 - 1): its root is found without
    # listing the divisors of N^2
    n = (2 ** 89 - 1) * (2 ** 107 - 1)
    p = tmp_path / "reducible.bloch"
    p.write_text("field 2 %d 0 1\n" % -(n * n))
    code, _, err = run(capsys, "invariant", str(p))
    assert code == 2
    assert err.startswith("invalid input:") and str(n) in err


def test_deterministic_output(capsys):
    a = run(capsys, "--precision", "128", "borel", fx("weeks_element.bloch"))
    b = run(capsys, "--precision", "128", "borel", fx("weeks_element.bloch"))
    assert a == b


def test_cs_filled_cusp(tmp_path, capsys):
    text = importlib.resources.files("blochinv").joinpath(
        "fixtures/figure_eight.tri").read_text()
    p = tmp_path / "filled.tri"
    p.write_text(text.replace("fill 0 complete", "fill 0 5 1"))
    code, out, _ = run(capsys, "--precision", "128", "cs", str(p))
    assert code == 0
    assert "0.9813688288922320880914521897" in out


def _exact_figure_eight(field_first):
    """figure_eight.tri with exact shapes in Q(sqrt -3), field header either
    first or after the tets/cusps header."""
    text = importlib.resources.files("blochinv").joinpath(
        "fixtures/figure_eight.tri").read_text()
    lines = ["shape %s exact 0 1" % line.split()[1] if line.startswith("shape")
             else line for line in text.splitlines()]
    if field_first:
        return "field 2 1 -1 1\n" + "\n".join(lines) + "\n"
    return "\n".join(lines).replace("cusps 1", "cusps 1\nfield 2 1 -1 1") + "\n"


def test_invariant_field_header_first(tmp_path, capsys):
    outs = []
    for field_first in (False, True):
        p = tmp_path / ("first.tri" if field_first else "after.tri")
        p.write_text(_exact_figure_eight(field_first))
        code, out, _ = run(capsys, "--format", "records", "invariant", str(p))
        assert code == 0
        outs.append(json.loads(out))
    assert outs[0] == outs[1]
    assert outs[0]["bloch_certificate"] == "CertifiedZero"


def test_invariant_exact_shape_zero_denominator_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.tri"
    p.write_text(_exact_figure_eight(False).replace("shape 0 exact 0 1",
                                                    "shape 0 exact 0 1/0"))
    code, _, err = run(capsys, "invariant", str(p))
    assert code == 2
    assert err.startswith("invalid input:")
    assert "bad exact shape" in err


@pytest.mark.parametrize("command,fill", [("invariant", "complete"),
                                          ("cs", "complete"), ("cs", "5 1"),
                                          ("invariant", "figure_eight.tri"),
                                          ("invariant", "example3.tri")])
def test_one_shape_validation_per_command(tmp_path, monkeypatch, capsys,
                                          command, fill):
    # the shapes Triangulation.validate returns are the ones the command
    # evaluates, or the filled solve starts from: one root search per call.
    # fill is the exact figure-eight's fill line, or a numeric fixture
    from blochinv.triang import Triangulation
    numeric_shapes = Triangulation.numeric_shapes
    calls = []

    def counting(self, precision=256):
        calls.append(precision)
        return numeric_shapes(self, precision)

    monkeypatch.setattr(Triangulation, "numeric_shapes", counting)
    p = tmp_path / "exact.tri"
    p.write_text(_exact_figure_eight(False).replace("fill 0 complete",
                                                    "fill 0 " + fill))
    path = fx(fill) if fill.endswith(".tri") else str(p)
    code, _, _ = run(capsys, "--format", "records", command, path)
    assert code == 0
    assert calls == [256]


def test_fill_exact_shapes_matches_numeric(tmp_path, capsys):
    # exact shapes start Newton at their validating root: the solve is the
    # numeric fixture's, digit for digit
    p = tmp_path / "exact.tri"
    p.write_text(_exact_figure_eight(False))
    code, out, _ = run(capsys, "--format", "records", "fill", str(p),
                       "--fill", "5,1")
    assert code == 0
    exact = json.loads(out)
    code, out, _ = run(capsys, "--format", "records", "fill",
                       fx("figure_eight.tri"), "--fill", "5,1")
    assert code == 0
    assert exact["volume"] == json.loads(out)["volume"]
    assert exact["steps"] == 9


def test_cs_exact_shapes_filled_cusp(tmp_path, capsys):
    p = tmp_path / "exact.tri"
    p.write_text(_exact_figure_eight(False).replace("fill 0 complete",
                                                    "fill 0 5 1"))
    code, out, _ = run(capsys, "--precision", "128", "cs", str(p))
    assert code == 0
    assert "0.9813688288922320880914521897" in out


@pytest.mark.parametrize("command", ["invariant", "fill", "cs"])
def test_exact_shapes_no_validating_root_exit_2(tmp_path, capsys, command):
    p = tmp_path / "exact.tri"
    p.write_text(_exact_figure_eight(False).replace("dvec -1 1 1 -1",
                                                    "dvec -1 1 1 0"))
    code, _, err = run(capsys, command, str(p))
    assert code == 2
    assert err.startswith("invalid input: no embedding validates the stored "
                          "d [-1, 1, 1, 0]")
    # each root is named with the d it gives
    assert "gives [-1, 1, 1, -1]" in err and "gives [1, -1, -1, 1]" in err


_TRI = "tets 1\ncusps 0\nshape 0 0.5 0.8\nurow 0 0 0\ndvec 0\n"
_FIG8 = importlib.resources.files("blochinv").joinpath(
    "fixtures/figure_eight.tri").read_text()
_FIG8_GLUE = "".join(l + "\n" for l in _FIG8.splitlines()
                     if l.startswith("glue"))
# the chiral sibling of the figure-eight gluing (collapsed H1 = Z/5)
_SIBLING_GLUE = "".join("glue %s\n" % g for g in (
    "0 0 1 0132", "0 1 1 2103", "0 2 1 0321", "0 3 1 1023",
    "1 0 0 0132", "1 1 0 2103", "1 2 0 0321", "1 3 0 1023"))


_MALFORMED = [
    ("num.bloch", "1 * (a b)\n", 1),
    ("place.bloch", "place 0.5 0.8\n1 * [1/2]\n", 1),
    ("polish.bloch", "field 2 1 0 1\nplace 0 0\n1 * [0 1]\n", 2),
    ("monic.bloch", "field 2 1 0 2\n1 * [0 1]\n", 1),
    ("const.bloch", "# constant\nfield 0 5\n1 * [2]\n", 2),
    ("tets.tri", _TRI.replace("tets 1", "tets 1 2"), 1),
    ("shape.tri", _TRI.replace("0.8", "0.8 9"), 3),
    ("glue.tri", _TRI + "glue 0 0 0 0123 1\n", 6),
    ("fill.tri", _TRI + "fill 0 complete 1\n", 6),
    ("urow_lattice.tri", _FIG8.replace("urow 2 0 1 -1 -1", "urow 2 0 1 -1 0"),
     13),
    ("sibling_glue.tri", _FIG8.replace(_FIG8_GLUE, _SIBLING_GLUE), 13),
    ("open_face.tri", _FIG8.replace("glue 0 0 1 0213\n", "")
     .replace("glue 1 0 0 0213\n", ""), 13),
    ("glue_range.tri", _FIG8.replace("glue 0 0 1 0213", "glue 0 0 2 0213"), 13),
    ("cusp_count.tri", _FIG8.replace("cusps 1", "cusps 0")
     .replace("urow 2 0 1 -1 -1\nurow 3 -1 -2 -1 1\n", "")
     .replace("dvec -1 1 1 -1", "dvec -1 1"), 11),
    ("mixed_shapes.tri", _exact_figure_eight(False).replace(
        "shape 1 exact 0 1", _FIG8.splitlines()[6]), 8),
    ("negative_cusps.tri", _TRI.replace("cusps 0", "cusps -2"), 2),
    ("vertex.poly", "vertex 0 0 0\nvertex 1 inf 0\n", 2),
    ("diag.poly", "vertex 0 inf\ndiag 0 1 2 3\n", 2),
    # a keyword or index given twice, and a fill of a cusp that is not there
    ("repeated_tets.tri", _TRI + "tets 1\n", 6),
    ("repeated_cusps.tri", _TRI + "cusps 0\n", 6),
    ("repeated_field.tri", "field 2 1 0 1\n" * 2 + _TRI, 2),
    ("repeated_dvec.tri", _TRI + "dvec 0\n", 6),
    ("repeated_shape.tri", _TRI + "shape 0 0.5 0.8\n", 6),
    ("repeated_urow.tri", _TRI + "urow 0 0 0\n", 6),
    ("repeated_fill.tri", _FIG8 + "fill 0 5 1\n", 22),
    ("repeated_glue.tri", _FIG8 + "glue 0 0 1 0213\n", 22),
    ("fill_range.tri", _FIG8 + "fill 3 5 1\n", 22),
    ("repeated_vertex.poly", "vertex 0 inf\nvertex 1 0 0\nvertex 0 1 0\n", 3),
    ("repeated_field.bloch", "field 2 1 0 1\nfield 2 -2 0 1\n1 * [1 1]\n", 2),
    ("late_field.bloch", "2 * [1/2]\nfield 2 1 0 1\n1 * [0 1]\n", 2),
]


@pytest.mark.parametrize("name,text,line", _MALFORMED,
                         ids=[case[0] for case in _MALFORMED])
def test_malformed_line_exit_2(tmp_path, capsys, name, text, line):
    p = tmp_path / name
    p.write_text(text)
    command = "scissors" if name.endswith(".poly") else "invariant"
    code, _, err = run(capsys, command, str(p))
    assert code == 2
    assert err.startswith("invalid input: line %d:" % line)


def test_header_counts_named(tmp_path, capsys):
    p = tmp_path / "negative.tri"
    p.write_text(_TRI.replace("tets 1", "tets -1"))
    code, _, err = run(capsys, "invariant", str(p))
    assert code == 2
    assert err == "invalid input: line 1: tets must be at least 1, got -1\n"
    p.write_text("tets 0\ncusps 0\ndvec\n")
    code, _, err = run(capsys, "invariant", str(p))
    assert code == 2
    assert err == "invalid input: line 1: tets must be at least 1, got 0\n"


@pytest.mark.parametrize("argv,text", [
    (["invariant", "mixed.bloch"],
     "field 2 -2 0 1\n1 * [1 1]\n1 * (0.5 0.5)\n"),
    (["relation", fx("weeks_element.bloch"), fx("example2_beta1.bloch")],
     None),
    (["cs", fx("figure_eight.tri"), "--calibrate-cs", "abc"], None),
    (["cs", fx("figure_eight.tri"), "--calibrate-cs", "nan"], None),
    (["cs", fx("figure_eight.tri"), "--calibrate-cs", "inf"], None),
    (["cs", fx("figure_eight.tri"), "--calibrate-cs", "1e999"], None),
] + [([command, "huge_%s.tri" % key],
       _TRI.replace("%s %d" % (key, n), "%s %d" % (key, 10 ** 20)))
      for command in ("invariant", "fill", "cs")
      for key, n in (("tets", 1), ("cusps", 0))
] + [([command, "empty.tri"], "tets 0\ncusps 0\ndvec\n")
     for command in ("invariant", "fill", "cs")
] + [(["scissors", "repeated_face_vertex.poly"],
      "vertex 0 0 0\nvertex 1 1 0\nvertex 2 0 1\nface 0 1 0 2\n"
      "diag 0 1 2\n"),
     (["scissors", "missing_face_vertex.poly"],
      "vertex 0 0 0\nvertex 1 inf\nvertex 2 1 0\nvertex 3 0.3 1.1\n"
      "face 0 2 1\nface 0 1 7\nface 1 2 7\nface 0 7 2\n")]
  + [(["--allow-flat", "fill", "start_%s.tri" % v, "--fill", "5,1"],
      re.sub(r"(?m)^(shape \d) .*$", r"\1 %s 0" % v, _FIG8))
     for v in ("1", "0")],
    ids=["mixed_real_field", "relation_unequal_places", "calibrate_cs",
         "calibrate_cs_nan", "calibrate_cs_inf", "calibrate_cs_huge"]
    + ["%s_huge_%s" % (command, key) for command in ("invariant", "fill", "cs")
       for key in ("tets", "cusps")]
    + ["%s_empty" % command for command in ("invariant", "fill", "cs")]
    + ["scissors_repeated_face_vertex", "scissors_missing_face_vertex",
       "fill_allow_flat_start_at_1", "fill_allow_flat_start_at_0"])
def test_bad_input_exit_2_without_traceback(tmp_path, capsys, argv, text):
    if text is not None:       # the file is the argument naming a .tri etc.
        name = next(a for a in argv if a.endswith((".tri", ".bloch", ".poly")))
        (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a) if a == name else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert err.startswith("invalid input:")


@pytest.mark.parametrize("fmt", ["text", "records"])
@pytest.mark.parametrize("slope", ["1,0", "4,1"])
def test_numeric_failure_exit_1(capsys, fmt, slope):
    # exceptional fillings of the figure-eight knot: the solve fails, and
    # the command prints nothing but one line on stderr
    code, out, err = run(capsys, "--format", fmt, "fill",
                         fx("figure_eight.tri"), "--fill", slope)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("numeric failure:")


@pytest.mark.parametrize("name,code", [
    ("NumericFailure", 1), ("Diverged", 1), ("DegeneratedToFlat", 1),
    ("JacobianSingular", 1), ("RootFindingFailed", 1), ("NotCoprime", 2)])
def test_error_class_decides_exit_code(monkeypatch, capsys, name, code):
    # main alone emits the report: a command that raises after filling part
    # of it prints nothing on stdout, and NumericFailure marks exit 1
    def failing(args, rep):
        rep.add("partial", True)
        raise getattr(errors, name)("planted")

    monkeypatch.setattr(cli, "cmd_fill", failing)
    prefix = "numeric failure:" if code == 1 else "invalid input:"
    assert run(capsys, "fill", fx("figure_eight.tri")) == \
        (code, "", prefix + " planted\n")


_SHAPE_VALUES = st.one_of(
    st.just(_FIG8.splitlines()[5].split(None, 2)[2]),
    st.just("exact 0 1"),
    st.builds("exact {} {}".format,
              *[st.fractions(-3, 3, max_denominator=4)] * 2),
    st.sampled_from(["0.5", "x y", "inf 0", "0.5 0.8 9", "exact",
                     "exact 0 1/0", "exact 0 1 2", "exact a 1", "1 0",
                     "0 0"]))


@settings(max_examples=30, deadline=None)
@given(st.lists(_SHAPE_VALUES, min_size=2, max_size=2), st.booleans())
@example(["1 0", "1 0"], False)
@example(["0 0", "0.5 0.8"], False)
def test_shape_lines_fuzz_exit_codes(values, field):
    # every shape line exact, numeric or malformed, with or without the
    # field header, each command with and without --allow-flat: a clean
    # exit through the documented codes
    lines = _FIG8.splitlines()
    lines[5:7] = ["shape %d %s" % shape for shape in enumerate(values)]
    if field:
        lines.insert(0, "field 2 1 -1 1")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.tri")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        for argv in [[*flags, command, path]
                     for flags in ([], ["--allow-flat"])
                     for command in ("invariant", "fill", "cs")]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(["--precision", "128"] + argv)
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert err.getvalue().startswith("invalid input:")


# the lines of the bundled .bloch files, and a few rational, quadratic and
# numeric ones
_BLOCH_LINES = sorted({
    line for name in ("weeks_element.bloch", "example2_beta1.bloch",
                      "example2_beta2.bloch")
    for line in pathlib.Path(fx(name)).read_text().splitlines()
    if line and not line.startswith("#")} | {
    "field 2 1 0 1", "field 1 -3 1", "2 * [1/2]", "-1 * [3]", "1 * [0 1]",
    "1 * [2 -1/3]", "1 * (0.5 0.8)", "-2 * (2 1)"})


def _bloch_degree(line):
    """The field degree a `.bloch` line needs: the degree a `field` line
    declares, the coefficient count of an exact term, else None."""
    if line.startswith("field"):
        return int(line.split()[1])
    if line.endswith("]"):
        return len(line[line.index("[") + 1:-1].split())
    return None


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([None] + [line for line in _BLOCH_LINES
                                 if line.startswith("field")]),
       st.data())
def test_invariant_element_parses_back(header, data):
    # whenever invariant accepts a .bloch file, the element it prints is a
    # file that parses back to the same terms.  The body lines suit the
    # header (degree 1 without one); one stray line may go anywhere.
    from blochinv.prebloch import (parse_element, serialize_element,
                                   six_fold_normalize)
    degree = _bloch_degree(header) if header else 1
    suits = [line for line in _BLOCH_LINES
             if _bloch_degree(line) == degree and not line.startswith("field")
             or line.endswith(")")
             or header and line.startswith("place")]
    lines = ([header] if header else []) + data.draw(
        st.lists(st.sampled_from(suits), min_size=1, max_size=4))
    for line in data.draw(st.lists(st.sampled_from(_BLOCH_LINES),
                                   max_size=1)):
        lines.insert(data.draw(st.integers(0, len(lines))), line)
    text = "\n".join(lines) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.bloch")
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--precision", "128", "--format", "records",
                         "invariant", path])
    assert code in (0, 1, 2)
    if code != 0:
        return
    printed = json.loads(out.getvalue())["element"]
    back, _ = parse_element("\n".join(printed) + "\n", precision=128)
    assert serialize_element(back).splitlines() == printed
    element = six_fold_normalize(parse_element(text, precision=128)[0])
    if element.is_exact():
        assert back.terms == element.terms


# The bundled fixtures each command reads; relation reads an edited
# example2 file beside the other, unedited one.
_COMMAND_FIXTURES = {
    "invariant": ("figure_eight.tri", "example3.tri", "weeks_element.bloch",
                  "example2_beta1.bloch", "example2_beta2.bloch"),
    "fill": ("figure_eight.tri",),
    "cs": ("figure_eight.tri", "example3.tri"),
    "borel": ("weeks_element.bloch", "example2_beta1.bloch",
              "example2_beta2.bloch"),
    "relation": ("example2_beta1.bloch", "example2_beta2.bloch"),
    "scissors": ("octahedron.poly", "square_pyramid.poly", "tetrahedron.poly",
                 "flat_quadrilateral.poly"),
}
_FIXTURE_LINES = {
    name: [line for line in pathlib.Path(fx(name)).read_text().splitlines()
           if line and not line.startswith("#")]
    for name in sorted(set().union(*_COMMAND_FIXTURES.values()))}
_TOKENS = ["0", "1", "-1", "2", "-3", "99", "1/2", "1/0", "0.5", "1e999",
           "nan", "inf", "x", "exact", "complete", "5,1"]


@st.composite
def _edited_fixture(draw):
    """(command, fixture name, text): a fixture of the command after one to
    three line edits: delete, duplicate, cut, replace a token, or splice in
    a line of any fixture."""
    command = draw(st.sampled_from(sorted(_COMMAND_FIXTURES)))
    name = draw(st.sampled_from(_COMMAND_FIXTURES[command]))
    lines = list(_FIXTURE_LINES[name])
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["delete", "duplicate", "cut", "token",
                                     "splice"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if edit == "splice":
            other = draw(st.sampled_from(sorted(_FIXTURE_LINES)))
            lines.insert(i, draw(st.sampled_from(_FIXTURE_LINES[other])))
        elif not lines:
            continue
        elif edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        elif edit == "cut":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        else:
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
                st.sampled_from(_TOKENS))
            lines[i] = " ".join(tokens)
    return command, name, "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(_edited_fixture())
# a norm of about 10000 bits: its valuations come without factoring it
@example(("invariant", "weeks_element.bloch",
          "field 3 1 -1 0 1\n1 * [0 1e999 0]\n"))
def test_edited_fixtures_exit_codes(case):
    # every command on every edited fixture ends through the documented
    # exit codes, without a traceback, and an exit 2 says why
    command, name, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w") as fh:
            fh.write(text)
        files = [path]
        if command == "relation":
            files.append(fx(next(other for other in _COMMAND_FIXTURES[command]
                                 if other != name)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--precision", "64", command] + files)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("invalid input:")


# (values accepted, values rejected) of each option; a --fill slope may
# still be non-coprime or degenerate, a --calibrate-cs value out of range
_ARGV_VALUES = {
    "--precision": (["64", "65", "128", "257", "512"],
                    ["63", "0", "-128", "x", "1.5", "1e2", ""]),
    "--format": (["text", "records"], ["json", ""]),
    "--denom-bound": (["1", "120", "99999999999999999999"],
                      ["0", "-3", "x"]),
    "--fill": (["5,1", "5 1", "-7,3", "97,-3", "1,0", "0,1", "complete",
                "2,4", "0,0", "6,-9"], ["5;1", "5,1,2", "5", "x", ""]),
    "--calibrate-cs": (["0", "1.25", "-3", "1e30", "-1e40", "1e999"],
                       ["nan", "inf", "abc", ""]),
    "--bound": (["1", "2", "64"], ["0", "-1", "x"]),
}


def _random_argv(rng):
    """A command line of one of the six commands on its fixtures (or a
    missing file, or one of another kind), its options drawn from
    _ARGV_VALUES, one in ten rejected, separate or in the = form."""
    def option(name):
        value = rng.choice(_ARGV_VALUES[name][rng.random() < 0.1])
        return ["%s=%s" % (name, value)] if rng.random() < 0.3 \
            else [name, value]

    command = rng.choice(sorted(_COMMAND_FIXTURES))
    names = [fx(rng.choice(_COMMAND_FIXTURES[command]))
             for _ in range(2 if command == "relation" else 1)]
    if command == "borel":
        names = [fx(name) for name in _COMMAND_FIXTURES["borel"]
                 if rng.random() < 0.7] or names
    if rng.random() < 0.1:
        names[0] = rng.choice([fx("octahedron.poly"), fx("figure_eight.tri"),
                               fx("weeks_element.bloch"), "no_such_file"])
    before = []
    for name in ("--precision", "--format", "--denom-bound"):
        if rng.random() < 0.5:
            before += option(name)
    if rng.random() < 0.3:
        before.append("--allow-flat")
    after = []
    if command == "fill":
        for _ in range(rng.choice([0, 1, 1, 2])):
            after += option("--fill")
    elif command == "cs" and rng.random() < 0.6:
        after += option("--calibrate-cs")
    elif command == "relation" and rng.random() < 0.6:
        after += option("--bound")
    if rng.random() < 0.1:
        # a global option after the command is a usage error
        after += rng.choice([["--allow-flat"], option("--precision")])
    return before + [command] + names + after


def test_argv_fuzz_exit_codes():
    # a seeded sample of command lines: every one ends through the
    # documented exit codes, argparse's usage errors as SystemExit(2),
    # without a traceback, and an exit 2 says why
    rng = random.Random(7)
    for _ in range(250):
        argv = _random_argv(rng)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv
        if code == 1:
            assert err.getvalue().startswith("numeric failure:"), argv
        if code == 2:
            assert err.getvalue().startswith("invalid input:"), argv


@pytest.mark.parametrize("argv", [
    ["--precision", "10", "invariant", "x"],
    ["bogus"],
    ["--format", "nope", "invariant", "x"],
    ["--denom-bound", "0", "cs", "x"],
    ["--denom-bound", "-3", "cs", "x"],
    ["relation", "--bound", "0", "a", "b"],
    ["relation", "--bound", "-1", "a", "b"],
], ids=["low_precision", "unknown_command", "bad_format", "denom_bound_zero",
        "denom_bound_negative", "bound_zero", "bound_negative"])
def test_usage_error_exit_2_one_line(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert err.startswith("invalid input:")


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["fill", "-h"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out


def test_invariant_volume_at_requested_precision(capsys):
    # the shapes are read at 512 bits, not at the 256-bit default
    code, out, _ = run(capsys, "--precision", "512", "--format", "records",
                       "invariant", fx("example3.tri"))
    assert code == 0
    t = parse_triangulation(open(fx("example3.tri")).read(), precision=512)
    with mp.workprec(600):
        ref = mp.fsum(bloch_wigner(z, 600) for z in t.numeric_shapes(512))
        assert abs(mp.mpf(json.loads(out)["volume"]) - ref) < mp.mpf(2) ** -500


# --- what each process imports ----------------------------------------------

# Runs cli.main on its arguments in a fresh process (or only imports the
# package, for "import") and prints the blochinv submodules and the heavy
# third-party modules then loaded, as the last line of its output.
_FOOTPRINT_PROBE = """
import sys
argv = sys.argv[1:]
if argv == ["import"]:
    import blochinv
else:
    from blochinv import cli
    try:
        cli.main(argv)
    except SystemExit:
        pass
print(" ".join(sorted(n[len("blochinv."):] for n in sys.modules
                      if n.startswith("blochinv."))
               + [n for n in ("mpmath", "dataclasses", "sympy")
                  if n in sys.modules]))
"""

# what every command that reads a file loads
_READ = {"mpmath", "cli", "errors", "dilog", "lattice", "numfield",
         "textformat"}

# each command loads the modules it runs and no other: fill and cs build no
# pre-Bloch element, and invariant reads a .bloch file without triang
_FOOTPRINT = [
    ("import", ["import"], set()),
    ("version", ["--version"], {"mpmath", "cli", "errors"}),
    ("invariant_tri", ["invariant", fx("figure_eight.tri")],
     _READ | {"prebloch", "triang"}),
    ("invariant_bloch", ["invariant", fx("weeks_element.bloch")],
     _READ | {"prebloch"}),
    ("fill", ["fill", fx("figure_eight.tri"), "--fill", "5,1"],
     _READ | {"triang", "surgery"}),
    ("cs", ["cs", fx("figure_eight.tri")],
     _READ | {"triang", "surgery", "chern_simons"}),
    ("borel", ["borel", fx("weeks_element.bloch")],
     _READ | {"prebloch", "borel"}),
    ("relation", ["relation", fx("example2_beta1.bloch"),
                  fx("example2_beta2.bloch")], _READ | {"prebloch", "borel"}),
    ("scissors", ["scissors", fx("octahedron.poly")],
     _READ | {"prebloch", "scissors"}),
]


@pytest.mark.parametrize("argv,loaded", [case[1:] for case in _FOOTPRINT],
                         ids=[case[0] for case in _FOOTPRINT])
def test_command_module_footprint(argv, loaded):
    src = str(pathlib.Path(blochinv.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_PROBE] + argv,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert set(proc.stdout.splitlines()[-1].split()) == loaded


def test_lazy_exports_are_the_defining_modules_names():
    for module, names in blochinv._EXPORTS.items():
        defining = importlib.import_module("blochinv." + module)
        for name in names:
            assert getattr(blochinv, name) is getattr(defining, name)
    assert sorted(blochinv.__all__) == sorted(
        name for names in blochinv._EXPORTS.values() for name in names)
    assert set(blochinv.__all__) <= set(dir(blochinv))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from blochinv import *", namespace)
    assert set(blochinv.__all__) <= set(namespace)


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError):
        blochinv.no_such_name
    # a submodule is not an export: the import system falls back to it
    with pytest.raises(AttributeError):
        blochinv.__getattr__("numfield")
    from blochinv import numfield
    assert numfield is sys.modules["blochinv.numfield"]
