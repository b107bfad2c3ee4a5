"""Outside-in tracer: spans around the public functions of each layer.

A layer is one ``blochinv`` module (plus ``sympy``, for the two functions the
program calls).  ``Tracer.install`` replaces every attribute, in every loaded
``blochinv`` module and class, that *is* a traced function by a wrapper that
records a span; ``Tracer.restore`` puts the originals back.  The program's
source is not touched, and nothing is wrapped outside a traced run.

Each span records its name, start, end, parent span and item id.  Every
span is kept in memory and written out by the caller.  A tracer may be
installed and restored several times; its records accumulate.  Self time is
a span's duration minus the time its child spans cover.  ``<layer>.calls``
counts calls into the layer from outside it; function metrics count every
call, and the li2 region buckets count only calls not made by li2 itself.
"""

import functools
import importlib
import sys
import time
import types

LAYERS = ("numfield", "dilog", "prebloch", "lattice", "triang", "surgery",
          "chern_simons", "borel", "scissors", "cli", "sympy")
FIELD_OPS = ("__mul__", "inverse", "__pow__", "norm")
LI2_REGIONS = ("series", "reflection", "inversion", "annulus")


def li2_region(z):
    """The branch li2 takes for input z, from the input alone."""
    z = complex(z)
    if abs(z) <= 0.5:
        return "series"
    if abs(1 - z) <= 0.5:
        return "reflection"
    if abs(z) >= 2:
        return "inversion"
    return "annulus"


def _targets():
    """Map each traced function object to its span name."""
    out = {}
    for layer in LAYERS[:-1]:
        mod = importlib.import_module("blochinv." + layer)
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType) and not name.startswith("_"):
                out[obj] = "%s.%s" % (layer, name)
            elif isinstance(obj, type):
                for meth, fn in vars(obj).items():
                    if not isinstance(fn, types.FunctionType):
                        continue
                    if obj.__name__ == "FieldElement":
                        wanted = meth in FIELD_OPS
                    else:
                        wanted = not meth.startswith("_")
                    if wanted:
                        out[fn] = "%s.%s.%s" % (layer, obj.__name__, meth)
    sympy = importlib.import_module("sympy")
    out[sympy.factorint] = "sympy.factorint"
    out[sympy.totient] = "sympy.totient"
    return out


class Tracer:
    def __init__(self):
        self.names = []          # span name per function id
        self.layer = []          # layer per function id
        self.stats = []          # per function id: [calls, entries, self_s, failed]
        self.li2_buckets = {r: [0, 0.0] for r in LI2_REGIONS}
        self.counters = {"lattice.lll_reduce.max_rows": 0,
                         "prebloch.multiplicative_relations.relations_found": 0,
                         "surgery.newton_solve.steps": 0}
        self.spans = []
        self.item = None
        self._stack = []
        self._next_id = 0
        self._patches = []
        self._li2 = -1
        self._wrappers = {}
        for fn, name in _targets().items():
            fid = len(self.names)
            self.names.append(name)
            self.layer.append(name.split(".", 1)[0])
            self.stats.append([0, 0, 0.0, 0])
            if name == "dilog.li2":
                self._li2 = fid
            self._wrappers[fn] = self._wrap(fn, fid, _HOOKS.get(name))

    # -- installation -----------------------------------------------------
    def install(self):
        wrappers = self._wrappers
        owners = [m for n, m in list(sys.modules.items())
                  if n == "blochinv" or n.startswith("blochinv.") or n == "sympy"]
        owners += [obj for m in owners for obj in list(vars(m).values())
                   if isinstance(obj, type)
                   and getattr(obj, "__module__", "").startswith("blochinv.")]
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._patches.append((owner, attr, val))
                    setattr(owner, attr, wrappers[val])
        return self

    def restore(self):
        while self._patches:
            owner, attr, val = self._patches.pop()
            setattr(owner, attr, val)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, fn, fid, hook):
        def wrapper(*args, **kwargs):
            return self._call(fid, fn, hook, args, kwargs)
        return functools.update_wrapper(wrapper, fn)

    # -- span recording ---------------------------------------------------
    def _call(self, fid, fn, hook, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = self._next_id
        self._next_id += 1
        bucket = None
        if fid == self._li2:
            if parent is not None and parent[0] == fid:
                bucket = parent[3]
            else:
                bucket = li2_region(args[0] if args else kwargs["z"])
                self.li2_buckets[bucket][0] += 1
        frame = [fid, span_id, 0.0, bucket]
        stack.append(frame)
        failed = 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = 0
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            self_s = dur - frame[2]
            if parent is not None:
                parent[2] += dur
            st = self.stats[fid]
            st[0] += 1
            st[1] += parent is None or self.layer[parent[0]] != self.layer[fid]
            st[2] += self_s
            st[3] += failed
            if bucket is not None:
                self.li2_buckets[bucket][1] += self_s
            self.spans.append((span_id, fid, start, end,
                               parent[1] if parent is not None else None,
                               self.item, failed))
        if hook is not None:
            hook(self.counters, args, kwargs, result)
        return result

    # -- results ----------------------------------------------------------
    def _fn(self, name):
        """[calls, entries, self_s, failed] summed over functions named name."""
        out = [0, 0, 0.0, 0]
        for fid, n in enumerate(self.names):
            if n == name:
                out = [a + b for a, b in zip(out, self.stats[fid])]
        return out

    def metrics(self):
        m = {}
        for layer in LAYERS:
            entries = failed = 0
            self_s = 0.0
            for fid, st in enumerate(self.stats):
                if self.layer[fid] == layer:
                    entries += st[1]
                    self_s += st[2]
                    failed += st[3]
            m[layer + ".calls"] = (entries, "count")
            m[layer + ".self_s"] = (self_s, "s")
            m[layer + ".failed"] = (failed, "count")
        for region, (calls, self_s) in self.li2_buckets.items():
            m["dilog.li2.%s.calls" % region] = (calls, "count")
            m["dilog.li2.%s.self_s" % region] = (self_s, "s")
        ops = [self._fn("numfield.FieldElement." + op) for op in FIELD_OPS]
        m["numfield.field_op.calls"] = (sum(o[0] for o in ops), "count")
        m["numfield.field_op.self_s"] = (sum(o[2] for o in ops), "s")
        for name in ("lattice.lll_reduce", "numfield.embeddings",
                     "prebloch.multiplicative_relations", "surgery.newton_solve",
                     "sympy.factorint", "sympy.totient"):
            st = self._fn(name)
            m[name + ".calls"] = (st[0], "count")
            m[name + ".self_s"] = (st[2], "s")
        for name in ("chern_simons.cs_formula", "borel.detect_relation",
                     "borel.borel_regulator"):
            m[name + ".self_s"] = (self._fn(name)[2], "s")
        for name, value in self.counters.items():
            m[name] = (value, "count")
        return m

    def span_document(self):
        return {"names": self.names,
                "fields": ["id", "name_index", "start", "end", "parent",
                           "item", "failed"],
                "spans": self.spans}


def _lll_hook(counters, args, kwargs, result):
    basis = args[0] if args else kwargs["basis"]
    key = "lattice.lll_reduce.max_rows"
    counters[key] = max(counters[key], len(basis))


def _relations_hook(counters, args, kwargs, result):
    counters["prebloch.multiplicative_relations.relations_found"] += len(result)


def _newton_hook(counters, args, kwargs, result):
    counters["surgery.newton_solve.steps"] += result.steps


_HOOKS = {"lattice.lll_reduce": _lll_hook,
          "prebloch.multiplicative_relations": _relations_hook,
          "surgery.newton_solve": _newton_hook}
