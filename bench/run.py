"""blochinv benchmark runner: one seeded workload, one closed-loop client.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-cold, wedge-certify, filling-sweep (see workloads.py for what
each exercises and why).

--trace 0 measures the end-to-end metrics.  The loop runs whole rounds of
seeded items, one after another, until --seconds have passed; every output is
checked against the oracles in oracles.py.  Item times are reported as
*costs*: an item's wall time divided by the wall time of a fixed reference
computation (reference_s, mpmath arithmetic that calls no program code)
timed right before and right after it, the faster of the two.  On a shared
2-vCPU VM the speed of the host changes by up to 1.5x for minutes at a time;
the reference slows down with it, so a cost stays put where a wall time
does not, while a faster or slower program still moves it.  Wall-clock
figures (items_per_s, item_s.p50, item_s.p90) are printed and saved
alongside, but are not metrics.  Set-up
time is measured in fresh processes (interpreter start, ``import blochinv``,
fixture parsing and input generation), once before the timed loop, at even
intervals during it and once after it, and reported as the median.

--trace 1 runs a fixed number of rounds, each twice on the same items:
untraced, then with the outside-in tracer of tracing.py installed.  It
reports the per-layer metrics and the tracing overhead.  Spans are written to
bench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The program is imported from src/ next to
this directory; without it run.py exits with a nonzero code and prints
no result.
"""

import argparse
import collections
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7  # before, five spread over the timed loop, after
REFERENCE_TERMS = 24  # about 3 ms on a 2-vCPU Xeon VM
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60


def _load_program():
    """Put ROOT/src first on sys.path and import blochinv from there."""
    src = ROOT / "src"
    if not (src / "blochinv" / "__init__.py").is_file():
        raise SystemExit("bench: no program at %s" % src)
    sys.path.insert(0, str(src))
    import blochinv
    if Path(blochinv.__file__).resolve().parent != src / "blochinv":
        raise SystemExit("bench: imported blochinv from %s, not %s"
                         % (blochinv.__file__, src))


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def reference_s():
    """Wall time of a fixed piece of 256-bit mpmath complex arithmetic that
    calls no program code: the unit of item costs.  It does the kind of work
    the program does (big-integer mantissas, short-lived objects), so it
    tracks the host's current speed for that work, and no change to the
    program can move it."""
    start = time.perf_counter()
    with mp.workprec(256):
        z = mp.mpc(mp.mpf(1) / 3, mp.mpf(2) / 7)
        total = mp.mpc(0)
        for k in range(REFERENCE_TERMS):
            total += mp.log(z + k) * mp.exp(z / (k + 1))
    return time.perf_counter() - start


def setup_seconds(workload, seed):
    """Wall time from spawning a fresh process to its first item."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", "0", "--setup-probe"],
                          cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(PROBE_TIMEOUT_S)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise SystemExit("bench: set-up probe failed (%r)" % line)
    return elapsed


def import_seconds(module):
    """Median in-process import time of ``module`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import %s; "
            "print(time.perf_counter() - t)" % module)
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             env=_child_env(), capture_output=True, check=True,
                             timeout=PROBE_TIMEOUT_S)
        samples.append(float(out.stdout))
    return statistics.median(samples)


class Tally:
    """Per-item times, oracle failures and the realised input mix."""

    def __init__(self, workload):
        self.workload = workload
        self.times = []
        self.failed = 0
        self.failures = []
        self.mix = collections.defaultdict(collections.Counter)
        self.digests = collections.defaultdict(set)
        self.max_child_rss_kb = 0

    def run(self, item, run):
        start = time.perf_counter()
        try:
            output = run(item)
        except Exception as exc:  # an item that raises counts as failed
            output = None
            problems = ["raised %s: %s" % (type(exc).__name__, exc)]
        self.times.append(time.perf_counter() - start)
        if output is not None:
            try:
                problems = self.workload.check(item, output)
            except Exception as exc:  # an unreadable output fails its item
                problems = ["oracle raised %s: %s" % (type(exc).__name__, exc)]
            if self.workload.name == "cli-cold":
                self.digests[item[0]].add(self.workload.digest(output))
                self.max_child_rss_kb = max(self.max_child_rss_kb, output[3])
        for key, value in self.workload.describe(item).items():
            if key in self.workload.mix_keys:
                for v in value if isinstance(value, tuple) else (value,):
                    self.mix[key][str(v)] += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(problems)


def measure(workload, seconds, probe=None):
    """Whole rounds, at least one, until ``seconds`` of items have passed,
    after an untimed warm-up that fills the program's per-precision caches;
    end-to-end metrics.  ``probe()``, if given, measures set-up time; it is
    called SETUP_PROBES times, spread over the run, between items and
    outside the timed loop's clock."""
    for item in workload.pool[0][:workload.warmup_items]:
        Tally(workload).run(item, workload.run)
    tally = Tally(workload)
    setup = [probe()] if probe else []
    due = [seconds * k / (SETUP_PROBES - 1) for k in range(1, SETUP_PROBES - 1)]
    refs = [reference_s()]
    wall = 0.0
    rounds = 0
    while rounds == 0 or wall < seconds:
        for item in workload.pool[rounds % len(workload.pool)]:
            start = time.perf_counter()
            tally.run(item, workload.run)
            refs.append(reference_s())
            wall += time.perf_counter() - start
            while probe and due and wall >= due[0]:
                setup.append(probe())
                due.pop(0)
        rounds += 1
    if probe:
        setup += [probe() for _ in range(SETUP_PROBES - len(setup))]
    costs = [t / min(a, b) for t, a, b in zip(tally.times, refs, refs[1:])]
    if workload.name == "cli-cold":
        rss_kb = tally.max_child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    p90 = _quantile(costs, 90)
    metrics = {
        "item_cost.p50": (statistics.median(costs), "ref"),
        "item_cost.p90": (p90, "ref"),
        "item_cost.mean": (statistics.fmean(costs), "ref"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    if setup:
        metrics["setup_s"] = (statistics.median(setup), "s")
    extra = {"rounds": rounds, "wall_s": wall,
             "samples_above_p90": sum(c > p90 for c in costs),
             "items_per_s": len(tally.times) / math.fsum(tally.times),
             "item_s.p50": statistics.median(tally.times),
             "item_s.p90": _quantile(tally.times, 90),
             "reference_s.p50": statistics.median(refs),
             "setup_samples": setup, "item_costs": costs}
    return tally, metrics, extra


def measure_traced(workload):
    """Fixed rounds, each run untraced and then traced, after the untimed
    warm-up; alternating by round exposes both passes to the same
    machine load."""
    from tracing import Tracer
    rounds = [workload.pool[k % len(workload.pool)]
              for k in range(workload.trace_rounds)]
    run = getattr(workload, "run_inprocess", workload.run)
    for item in workload.pool[0][:workload.warmup_items]:
        Tally(workload).run(item, run)
    untraced, tally = Tally(workload), Tally(workload)
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    for rnd in rounds:
        start = time.perf_counter()
        for item in rnd:
            untraced.run(item, run)
        untraced_s += time.perf_counter() - start
        with tracer:
            start = time.perf_counter()
            for item in rnd:
                tracer.item = len(tally.times)
                tally.run(item, run)
            traced_s += time.perf_counter() - start
    items = len(tally.times)
    metrics = tracer.metrics()
    metrics["import.sympy_s"] = (import_seconds("sympy"), "s")
    metrics["import.blochinv_cli_s"] = (import_seconds("blochinv.cli"), "s")
    metrics["trace.items_per_s"] = (items / traced_s, "1/s")
    metrics["trace.untraced_items_per_s"] = (items / untraced_s, "1/s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "1")
    extra = {"untraced_failed": untraced.failed, "spans": len(tracer.spans)}
    return tally, metrics, extra, tracer.span_document()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _load_program()
    os.chdir(ROOT)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit("bench: unknown workload %r (choose from %s)"
                         % (args.workload, ", ".join(WORKLOADS)))
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    spans = None
    if args.trace:
        tally, metrics, extra, spans = measure_traced(workload)
    else:
        tally, metrics, extra = measure(
            workload, args.seconds,
            lambda: setup_seconds(args.workload, args.seed))

    attempted = len(tally.times)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": attempted, "failed": tally.failed,
        "fail_ratio": tally.failed / attempted,
        "rejected_inputs": workload.rejected,
        "mix": {k: dict(sorted(v.items())) for k, v in tally.mix.items()},
        "failures": tally.failures,
        "item_times": tally.times,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report.update(extra)
    if args.workload == "cli-cold":
        reference = json.loads((HERE / "digests.json").read_text())
        digests = {k: sorted(v) for k, v in sorted(tally.digests.items())}
        report["digests"] = digests
        report["digest_changed"] = [k for k, v in digests.items()
                                    if v != [reference.get(k)]]

    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (OUT / (stem + ".json")).write_text(json.dumps(report, indent=1))
    if spans is not None:
        (OUT / (stem + "-spans.json")).write_text(json.dumps(spans))

    for key in ("workload", "seed", "attempted", "failed", "fail_ratio",
                "samples_above_p90", "rejected_inputs", "rounds", "wall_s",
                "items_per_s", "item_s.p50", "item_s.p90", "reference_s.p50",
                "untraced_failed", "spans", "digest_changed"):
        if key in report:
            print("%-20s %s" % (key, report[key]))
    print("%-20s %s" % ("mix", json.dumps(report["mix"], sort_keys=True)))
    for problems in tally.failures[:5]:
        print("%-20s %s" % ("failure", "; ".join(problems)[:300]))
    for name, (value, unit) in sorted(metrics.items()):
        print("%-44s %.6g %s" % (name, value, unit))
    print(json.dumps({"correct": tally.failed == 0, "attempted": attempted,
                      "failed": tally.failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
