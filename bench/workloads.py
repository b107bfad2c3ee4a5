"""The three benchmark workloads: seeded inputs, items and their oracles.

A workload is built from a seed and holds a pool of *rounds*, so that any
whole number of rounds has the workload's nominal mix: a round is the 15
commands (cli-cold), one item that covers the three fields (wedge-certify),
or seven slopes, each at the three precisions (filling-sweep).  ``run``
performs one item and returns its output; ``check`` returns the list of
oracle failures for that output (empty when correct); ``describe`` returns
the item's input properties, which run.py tallies into the realised mix.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import mpmath as mp
# Program functions are called through their modules, so that a traced run
# sees the wrappers the tracer installs on the module attributes.
from blochinv import chern_simons, cli, numfield, prebloch, surgery, triang
from blochinv.errors import DegenerateFiveTerm, DegenerateShape

import oracles as O

FIXTURES = "src/blochinv/fixtures/"
PRECISIONS = (128, 256, 512)
CHILD_TIMEOUT_S = 120


class Workload:
    name = None
    mix_keys = ()
    rounds_in_pool = 0
    trace_rounds = 0
    warmup_items = 5

    def __init__(self, root, seed):
        self.root = Path(root)
        self.rejected = 0
        self.pool = self.generate(random.Random("%s/%d" % (self.name, seed)))

    def text(self, fixture):
        return (self.root / FIXTURES / fixture).read_text()

    def inputs(self):
        """Canonical text of the generated inputs (for determinism checks)."""
        return repr([[self.describe(item) for item in rnd] for rnd in self.pool])


# ---------------------------------------------------------------------------

def _cli_invocations():
    inv = [("invariant " + f, ["invariant", FIXTURES + f])
           for f in ("figure_eight.tri", "example3.tri", "weeks_element.bloch",
                     "example2_beta1.bloch", "example2_beta2.bloch")]
    inv += [("fill figure_eight.tri", ["fill", FIXTURES + "figure_eight.tri"]),
            ("fill figure_eight.tri --fill 5,1",
             ["fill", FIXTURES + "figure_eight.tri", "--fill", "5,1"]),
            ("cs figure_eight.tri", ["cs", FIXTURES + "figure_eight.tri"]),
            ("cs example3.tri", ["cs", FIXTURES + "example3.tri"]),
            ("borel *.bloch", ["borel"] + [FIXTURES + f for f in (
                "weeks_element.bloch", "example2_beta1.bloch",
                "example2_beta2.bloch")]),
            ("relation beta1 beta2", ["relation",
                                      FIXTURES + "example2_beta1.bloch",
                                      FIXTURES + "example2_beta2.bloch"])]
    inv += [("scissors " + f, ["scissors", FIXTURES + f])
            for f in ("octahedron.poly", "square_pyramid.poly",
                      "tetrahedron.poly", "flat_quadrilateral.poly")]
    return [(label, ["--format", "records"] + argv) for label, argv in inv]


class CliCold(Workload):
    """Every CLI command on every applicable fixture, one fresh process each."""
    name = "cli-cold"
    mix_keys = ("command",)
    rounds_in_pool = 8
    trace_rounds = 2
    warmup_items = 1

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))

    def generate(self, rng):
        base = _cli_invocations()
        pool = []
        for _ in range(self.rounds_in_pool):
            rnd = list(base)
            rng.shuffle(rnd)
            pool.append(rnd)
        return pool

    def describe(self, item):
        return {"command": item[0]}

    def run(self, item):
        """One fresh process; returns (exit code, stdout, stderr, max RSS kB)."""
        with subprocess.Popen([sys.executable, "-m", "blochinv.cli"] + item[1],
                              cwd=self.root, env=self.env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            err = []
            reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
            reader.start()
            out = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
            timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, err[0], usage.ru_maxrss

    def run_inprocess(self, item):
        """The same invocation through blochinv.cli.main in this process."""
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = cli.main(list(item[1]))
        return code, buf.getvalue().encode(), err.getvalue().encode(), 0

    @staticmethod
    def digest(output):
        return hashlib.sha256(output[1]).hexdigest()

    def check(self, item, output):
        code, out, err, _ = output
        if code != 0:
            return ["exit code %s: %s" % (code, err.decode(errors="replace")[-200:])]
        try:
            doc = json.loads(out)
        except ValueError as exc:
            return ["records output is not JSON: %s" % exc]
        bad = []
        if not str(doc.get("schema", "")).startswith(O.SCHEMA_PREFIX):
            bad.append("schema tag %r" % doc.get("schema"))
        if doc.get("command") != item[1][2]:
            bad.append("command %r" % doc.get("command"))
        prec = doc.get("precision", 256)

        def expect(key, value):
            if key not in doc:
                bad.append("missing %s" % key)
            elif not O.close(doc[key], value, prec):
                bad.append("%s = %s, expected %s" % (key, doc[key], value))

        def expect_true(key):
            if doc.get(key) is not True:
                bad.append("%s = %r" % (key, doc.get(key)))

        def expect_vector(key, values):
            got = doc.get(key)
            if not isinstance(got, list) or len(got) != len(values):
                bad.append("%s = %r" % (key, got))
                return
            for x, v in zip(got, values):
                if not O.close(x, v, prec):
                    bad.append("%s entry %s, expected %s" % (key, x, v))

        label = item[0]
        if label.startswith("invariant"):
            if label.endswith(".tri"):
                expect_true("validated")
                expect("volume", O.VOL_FIGURE_EIGHT if "figure_eight" in label
                       else O.VOL_EXAMPLE3)
            else:
                if doc.get("bloch_certificate") != "CertifiedZero":
                    bad.append("certificate %r" % doc.get("bloch_certificate"))
                pub = {"weeks_element.bloch": (O.VOL_WEEKS,),
                       "example2_beta1.bloch": O.BETA1,
                       "example2_beta2.bloch": O.BETA2}[label.split()[1]]
                for j, v in enumerate(pub):
                    expect("volume_place_%d" % j, v)
                # the default embedding order permutes and conjugates places
                got = sorted(abs(float(doc.get("volume_embedding_%d" % j, "nan")))
                             for j in range(len(pub)))
                want = sorted(abs(float(v)) for v in pub)
                if not all(abs(a - b) < 1e-12 for a, b in zip(got, want)):
                    bad.append("embedding volumes %s" % got)
        elif label.startswith("fill"):
            expect_true("converged")
            if "--fill" in label:
                expect("volume", O.VOL_FIG8_5_1)
                lam = doc.get("core_length_0", "(-1")
                if not float(lam.strip("()").split()[0]) > 0:
                    bad.append("core length %s" % lam)
            else:
                expect("volume", O.VOL_FIGURE_EIGHT)
        elif label.startswith("cs"):
            expect("vol", O.VOL_FIGURE_EIGHT if "figure_eight" in label
                   else O.VOL_EXAMPLE3)
            if not O.is_rational_string(doc.get("cs_over_pi2_rational")):
                bad.append("cs/pi^2 %r" % doc.get("cs_over_pi2_rational"))
        elif label.startswith("borel"):
            for f, pub in (("weeks_element.bloch", (O.VOL_WEEKS,)),
                           ("example2_beta1.bloch", O.BETA1),
                           ("example2_beta2.bloch", O.BETA2)):
                expect_vector("regulator_" + FIXTURES + f, pub)
                gal = doc.get("galois_sum_" + FIXTURES + f)
                if gal is None or not O.small(gal, prec):
                    bad.append("galois sum %s: %r" % (f, gal))
        elif label.startswith("relation"):
            # beta1 and beta2 have independent regulators: no relation, rank 2
            if doc.get("relation") is not None or doc.get("rank_witness") != 2:
                bad.append("relation %r rank %r" % (doc.get("relation"),
                                                    doc.get("rank_witness")))
        elif label.startswith("scissors"):
            expect_true("apex_independent")
            poly = label.split()[1]
            if poly == "flat_quadrilateral.poly":
                if doc.get("volume") is None or float(doc["volume"]) != 0:
                    bad.append("flat volume %r" % doc.get("volume"))
            else:
                expect("volume", {"octahedron.poly": O.VOL_OCTAHEDRON,
                                  "square_pyramid.poly": O.VOL_SQUARE_PYRAMID,
                                  "tetrahedron.poly": O.VOL_TETRAHEDRON}[poly])
        return bad


# ---------------------------------------------------------------------------

class WedgeCertify(Workload):
    """five_term(x, y) then is_bloch at 256 bits over Q, Q(i) and the cubic
    field of discriminant -23.  One item certifies one relation in each of
    the three fields: the per-field costs (medians about 3 ms, 65 ms and
    90 ms on a 2-vCPU Xeon VM) form separate peaks, and a single-relation
    item would put the run's median on the steep edge between two of
    them."""
    name = "wedge-certify"
    mix_keys = ("field",)
    rounds_in_pool = 200
    trace_rounds = 10
    FIELDS = ("Q", "Q(i)", "cubic")

    def generate(self, rng):
        """One item per round."""
        fields = {"Q(i)": numfield.field_make([1, 0, 1]),
                  "cubic": numfield.field_make([1, -1, 0, 1])}

        def point(kind):
            if kind == "Q":
                return Fraction(rng.randint(-30, 30), rng.randint(1, 8))
            f = fields[kind]
            return f.element([rng.randint(-8, 8) for _ in range(f.degree)])

        def relation(kind):
            while True:
                x, y = point(kind), point(kind)
                try:
                    return kind, x, y, prebloch.five_term(x, y)
                except (DegenerateFiveTerm, DegenerateShape):
                    self.rejected += 1

        return [[tuple(relation(kind) for kind in self.FIELDS)]
                for _ in range(self.rounds_in_pool)]

    def describe(self, item):
        return {"field": tuple(kind for kind, _, _, _ in item),
                "pairs": ["(%s, %s)" % (x, y) for _, x, y, _ in item]}

    def run(self, item):
        return [prebloch.is_bloch(element, precision=256)
                for _, _, _, element in item]

    def check(self, item, output):
        return ["five_term(%s, %s) over %s: verdict %s"
                % (x, y, kind, cert.verdict)
                for (kind, x, y, _), cert in zip(item, output)
                if cert.verdict != "CertifiedZero"]


# ---------------------------------------------------------------------------

def _filling_slopes():
    """Coprime slopes p/q with |p| <= 12, 1 <= q <= 6 outside the exceptional
    set {1/0, 0/1, +-1, +-2, +-3, +-4} of the figure-eight knot."""
    return [(p, q) for q in range(1, 7) for p in range(-12, 13)
            if math.gcd(p, q) == 1 and not (q == 1 and abs(p) <= 4)]


class FillingSweep(Workload):
    """Dehn filling of figure_eight.tri: solve, volume, CS, rationality probe.
    One item is one slope at all three precisions, so that every item does
    the same mix of work and the per-item times form a single peak."""
    name = "filling-sweep"
    mix_keys = ("slope",)
    rounds_in_pool = 48
    trace_rounds = 4
    warmup_items = 2
    SLOPES_PER_ROUND = 7

    def __init__(self, root, seed):
        super().__init__(root, seed)
        text = self.text("figure_eight.tri")
        self.tri = {p: triang.parse_triangulation(text, precision=p)
                    for p in PRECISIONS}
        t = self.tri[PRECISIONS[0]]
        self.flattening = chern_simons.solve_flattening(t.U, t.d)

    def generate(self, rng):
        """Shuffled passes over all slopes, cut into rounds of seven."""
        slopes = _filling_slopes()
        order = []
        while len(order) < self.rounds_in_pool * self.SLOPES_PER_ROUND:
            cycle = list(slopes)
            rng.shuffle(cycle)
            order += cycle
        k = self.SLOPES_PER_ROUND
        return [order[r * k:(r + 1) * k] for r in range(self.rounds_in_pool)]

    def describe(self, item):
        p, q = item
        return {"slope": "%d/%d" % (p, q)}

    def run(self, item):
        out = []
        for prec in PRECISIONS:
            system = surgery.filled_system(self.tri[prec], [item])
            res = surgery.newton_solve(system, precision=prec)
            vol = surgery.solution_volume(res, precision=prec)
            cs = chern_simons.cs_formula(res.shapes, res.lambdas,
                                         self.flattening, precision=prec)
            probe = chern_simons.rationalize_mod_pi2(cs.cs_mod_rational, 120,
                                                     prec)
            out.append((res, vol, cs, probe))
        return out

    def check(self, item, output):
        p, q = item
        bad = []
        for prec, (res, vol, cs, _) in zip(PRECISIONS, output):
            with mp.workprec(prec + 32):
                if not res.converged:
                    bad.append((prec, "not converged"))
                if not 0 < vol < mp.mpf(O.VOL_FIGURE_EIGHT):
                    bad.append((prec, "vol %s outside (0, vol(4_1))"
                                % mp.nstr(vol, 20)))
                if not O.small(cs.vol - vol, prec):
                    bad.append((prec, "|cs.vol - sum D2| = %s"
                                % mp.nstr(abs(cs.vol - vol), 5)))
                if not mp.re(res.lambdas[0]) > 0:
                    bad.append((prec, "Re lambda = %s"
                                % mp.nstr(mp.re(res.lambdas[0]), 5)))
                if (abs(p), q) == (5, 1) and not O.close(vol, O.VOL_FIG8_5_1,
                                                         prec):
                    bad.append((prec, "vol(%d,1) = %s" % (p, mp.nstr(vol, 25))))
        return ["%d/%d at %d bits: %s" % (p, q, prec, b) for prec, b in bad]


WORKLOADS = {w.name: w for w in (CliCold, WedgeCertify, FillingSweep)}
