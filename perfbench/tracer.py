"""Per-layer spans and counters, recorded from outside the program.

``install()`` wraps the public functions of every ``mloop`` module (plus a
few methods and the registered verify checks) and rebinds every alias of
each wrapped function in every ``mloop.*`` namespace, so calls made
through ``from .structure import is_normal`` or ``verify._run_fixpoint``
are traced too.  Nothing under ``src/`` changes.

A layer is an ``mloop`` module.  Each span is charged to its layer and to
a group (``fixpoint``, ``closure``, ...); a span whose function has no
group inherits the group of an enclosing span of the same layer.  Time
is self time: a span's duration minus the durations of its child spans,
so every traced instant is charged to exactly one innermost span.
"""

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("loop_core", "structure", "normalizer", "perm_group", "mult_group", "verify", "cli")

# (layer, function or Class.method) -> group
GROUPS = {
    ("loop_core", "diagnose"): "diagnose",
    ("loop_core", "CayleyLoop.associator_table"): "tensor",
    ("loop_core", "CayleyLoop.inner_mapping_table"): "tensor",
    ("loop_core", "quotient"): "quotient",
    ("structure", "all_subloops"): "lattice",
    ("structure", "generate_subloop"): "closure",
    ("structure", "join"): "closure",
    ("structure", "is_normal"): "is_normal",
    ("structure", "center"): "scan",
    ("structure", "associator_subloop"): "scan",
    ("structure", "cube_subloop"): "scan",
    ("structure", "upper_central_series"): "series",
    ("structure", "maximal_subloops"): "series",
    ("structure", "frattini_subloop"): "series",
    ("normalizer", "normalizer"): "fixpoint",
    ("normalizer", "normalizer_oracle"): "oracle",
    ("perm_group", "PermGroup._build_chain"): "chain",
    ("perm_group", "PermGroup.enumerate_elements"): "enumerate",
    ("perm_group", "normalizer_of_subgroup"): "normalizer",
    ("perm_group", "frattini_subgroup"): "frattini",
    ("perm_group", "frattini_subgroup_oracle"): "frattini",
    ("perm_group", "center_of_group"): "center",
    ("mult_group", "multiplication_group"): "build",
    ("mult_group", "h_star"): "h_star",
}

METHODS = {
    "loop_core": ("CayleyLoop", ("associator_table", "inner_mapping_table")),
    "perm_group": ("PermGroup", ("_build_chain", "enumerate_elements")),
}

# 14 registered checks, in registry order; each is a group of the verify layer.
CHECK_NAMES = (
    "inner_mapping_identity",
    "associator_symmetries",
    "product_associator_expansion",
    "lemma1_quotient_action",
    "lemma2_cubes_central",
    "lemma4_frattini_containments",
    "lemma6_frattini_biconditional",
    "lemma7_derived_four_way",
    "prop1_center_correspondence",
    "prop3_normalizer_containments",
    "prop4_chain_bounds",
    "theorem2_normalizer_condition",
    "frattini_agreement",
    "divisible_degeneracy",
)

# per-layer metric -> (kind, key); "time" sums the self time of a group,
# "calls" counts the calls of its functions.
GROUP_METRICS = {
    "loop_core.diagnose_s": ("time", ("loop_core", "diagnose")),
    "loop_core.tensor_s": ("time", ("loop_core", "tensor")),
    "loop_core.quotient_calls": ("calls", ("loop_core", "quotient")),
    "loop_core.quotient_s": ("time", ("loop_core", "quotient")),
    "structure.lattice_s": ("time", ("structure", "lattice")),
    "structure.closure_calls": ("calls", ("structure", "closure")),
    "structure.closure_s": ("time", ("structure", "closure")),
    "structure.is_normal_calls": ("calls", ("structure", "is_normal")),
    "structure.is_normal_s": ("time", ("structure", "is_normal")),
    "structure.scan_s": ("time", ("structure", "scan")),
    "structure.series_s": ("time", ("structure", "series")),
    "normalizer.fixpoint_calls": ("calls", ("normalizer", "fixpoint")),
    "normalizer.fixpoint_s": ("time", ("normalizer", "fixpoint")),
    "normalizer.oracle_calls": ("calls", ("normalizer", "oracle")),
    "normalizer.oracle_s": ("time", ("normalizer", "oracle")),
    "perm_group.chain_builds": ("calls", ("perm_group", "chain")),
    "perm_group.chain_s": ("time", ("perm_group", "chain")),
    "perm_group.enumerate_s": ("time", ("perm_group", "enumerate")),
    "perm_group.normalizer_s": ("time", ("perm_group", "normalizer")),
    "perm_group.frattini_s": ("time", ("perm_group", "frattini")),
    "perm_group.center_s": ("time", ("perm_group", "center")),
    "mult_group.build_s": ("time", ("mult_group", "build")),
    "mult_group.h_star_calls": ("calls", ("mult_group", "h_star")),
    "mult_group.h_star_s": ("time", ("mult_group", "h_star")),
}
GROUP_METRICS.update({
    f"verify.check.{name}_s": ("time", ("verify", f"check.{name}")) for name in CHECK_NAMES
})
COUNTERS = (
    "loop_core.tensor_mb",
    "structure.lattice_subloops",
    "normalizer.fixpoint_stages",
    "perm_group.schreier_gens",
    "perm_group.elements_enumerated",
    "mult_group.inner_gens",
)
RATIOS = {"normalizer.oracle_agree_ratio": ("normalizer.oracle_agree", ("normalizer", "oracle"))}

UNITS = {"_s": "s", "_mb": "MiB", "_ratio": "ratio"}


def unit_of(metric):
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def metric_names():
    """Every per-layer metric the tracer reports, in a stable order."""
    names = [f"{layer}.self_s" for layer in LAYERS]
    names += list(GROUP_METRICS) + list(COUNTERS) + list(RATIOS)
    return names


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [layer, group, child seconds]
        self.seconds = defaultdict(float)  # (layer, group) -> self seconds
        self.calls = Counter()  # (layer, own group) -> calls
        self.counters = Counter()
        self.m_chain_gens = []  # per-level generator counts of each M(L) built
        self._fixpoints = {}

    # -- spans -------------------------------------------------------------

    def wrap(self, fn, layer, group, hook=None):
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            charged = group
            if charged is None and stack and stack[-1][0] == layer:
                charged = stack[-1][1]
            frame = [layer, charged, 0.0]
            stack.append(frame)
            self.calls[(layer, group)] += 1
            start = clock()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, fn, args, kwargs)
            finally:
                span = clock() - start
                stack.pop()
                self.seconds[(layer, charged)] += span - frame[2]
                if stack:
                    stack[-1][2] += span

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- report --------------------------------------------------------------

    def metrics(self):
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s for (lay, _), s in self.seconds.items() if lay == layer)
        for name, (kind, key) in GROUP_METRICS.items():
            out[name] = self.seconds.get(key, 0.0) if kind == "time" else self.calls[key]
        for name in COUNTERS:
            out[name] = self.counters[name]
        for name, (counter, key) in RATIOS.items():
            calls = self.calls[key]
            out[name] = self.counters[counter] / calls if calls else 0.0
        return out


# -- hooks: counters read where the work happens ------------------------------


def _members(value):
    if value is None:
        return None
    if hasattr(value, "members"):
        return value.members
    return tuple(sorted({int(i) for i in value}))


def _fixpoint_key(args, kwargs):
    bound = dict(zip(("loop", "k", "h"), args), **kwargs)
    return id(bound["loop"]), _members(bound["k"]), _members(bound["h"])


def _hook_tensor(tracer, fn, args, kwargs):
    loop = args[0]
    cached = (loop._assoc, loop._inner)
    tensor = fn(*args, **kwargs)
    if not any(t is tensor for t in cached):
        tracer.counters["loop_core.tensor_mb"] += tensor.size * tensor.itemsize / 2**20
    return tensor


def _hook_lattice(tracer, fn, args, kwargs):
    lattice = fn(*args, **kwargs)
    tracer.counters["structure.lattice_subloops"] += len(lattice)
    return lattice


def _hook_fixpoint(tracer, fn, args, kwargs):
    trace = fn(*args, **kwargs)
    tracer.counters["normalizer.fixpoint_stages"] += trace.iterations
    tracer._fixpoints[_fixpoint_key(args, kwargs)] = trace.result.elements
    return trace


def _hook_oracle(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)  # a disagreement between seeded runs raises
    if tracer._fixpoints.get(_fixpoint_key(args, kwargs)) == result.elements:
        tracer.counters["normalizer.oracle_agree"] += 1
    return result


def _hook_enumerate(tracer, fn, args, kwargs):
    fresh = args[0]._elements is None
    elements = fn(*args, **kwargs)
    if fresh:
        tracer.counters["perm_group.elements_enumerated"] += len(elements)
    return elements


def _hook_mult_group(tracer, fn, args, kwargs):
    bundle = fn(*args, **kwargs)
    tracer.counters["mult_group.inner_gens"] += len(bundle.I.generators)
    m_gens = [len(level.generators) for level in bundle.M.chain]
    i_gens = [len(level.generators) for level in bundle.I.chain]
    tracer.counters["perm_group.schreier_gens"] += sum(m_gens) + sum(i_gens)
    tracer.m_chain_gens.append(m_gens)
    return bundle


HOOKS = {
    ("loop_core", "CayleyLoop.associator_table"): _hook_tensor,
    ("loop_core", "CayleyLoop.inner_mapping_table"): _hook_tensor,
    ("structure", "all_subloops"): _hook_lattice,
    ("normalizer", "normalizer"): _hook_fixpoint,
    ("normalizer", "normalizer_oracle"): _hook_oracle,
    ("perm_group", "PermGroup.enumerate_elements"): _hook_enumerate,
    ("mult_group", "multiplication_group"): _hook_mult_group,
}


def install():
    """Wrap every layer of the imported ``mloop`` package; return the Tracer.

    Call it once per process: a second call would wrap the wrappers.
    """
    import mloop  # noqa: F401
    import mloop.cli  # noqa: F401

    tracer = Tracer()
    replaced = {}  # id(original) -> (original, wrapper)

    def wrap(fn, layer, name, group):
        wrapper = tracer.wrap(fn, layer, group, HOOKS.get((layer, name)))
        replaced[id(fn)] = (fn, wrapper)
        return wrapper

    for layer in LAYERS:
        mod = sys.modules[f"mloop.{layer}"]
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                wrap(obj, layer, name, GROUPS.get((layer, name)))
        if layer in METHODS:
            cls_name, methods = METHODS[layer]
            cls = getattr(mod, cls_name)
            for meth in methods:
                key = f"{cls_name}.{meth}"
                setattr(cls, meth, wrap(getattr(cls, meth), layer, key, GROUPS[(layer, key)]))

    verify = sys.modules["mloop.verify"]
    registry = []
    for name, suite, fn in verify.CHECK_REGISTRY:
        registry.append((name, suite, wrap(fn, "verify", fn.__name__, f"check.{name}")))
    verify.CHECK_REGISTRY = tuple(registry)
    if [entry[0] for entry in registry] != list(CHECK_NAMES):
        raise RuntimeError("verify.CHECK_REGISTRY no longer matches the traced check names")

    for modname, mod in list(sys.modules.items()):
        if modname != "mloop" and not modname.startswith("mloop."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    return tracer
