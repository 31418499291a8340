"""Per-layer spans around ovfree's public functions, installed from outside.

Nothing in ``src`` changes: :meth:`Tracer.install` replaces each public
function of the traced modules with a timing wrapper at every name it is
bound to inside the package, including the copies made by
``from ... import ...``.  Spans are aggregated per name as they close:
calls, total time, self time (the span's time minus the union of the
intervals its wrapped children cover) and call counts along each
parent -> child edge.  Spans started on a worker thread with nothing open
on that thread belong to the main thread's outermost open span, which is
``cli.run_config`` while an item runs.
"""

import importlib
import inspect
import sys
import threading
import time
import types
from collections import defaultdict

MODULES = ("linalg", "measures", "ovdist", "moments", "transforms",
           "convolution", "killer", "cli")
METHODS = (("ovdist", "ScalarEmbedded", ("eval_G", "eval_dG")),
           ("ovdist", "DiracB", ("eval_G", "eval_dG")),
           ("ovdist", "OVSemicircular", ("eval_G", "eval_dG")),
           ("convolution", "ConvolutionTask", ("certify",)))
# Names bound by ``from ... import ...``; a wrapper must sit at each of them.
REBOUND = ("convolution.invert_G", "convolution.g_jacobian",
           "convolution.bloch_certify", "transforms.adaptive_integral")

_JACOBIANS = ("transforms.k_jacobian", "transforms.g_jacobian")
_EVAL_DG = tuple(f"ovdist.{cls}.eval_dG"
                 for cls in ("ScalarEmbedded", "DiracB", "OVSemicircular"))


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    covered, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


class _Frame:
    __slots__ = ("name", "children")

    def __init__(self, name):
        self.name = name
        self.children = []


class Tracer:
    """Aggregated spans and counters; safe to feed from several threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None
        self._restore = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = defaultdict(int)
        self.counters = defaultdict(float)

    # -- spans -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        tracer = self
        main = threading.main_thread()

        def span(*args, **kwargs):
            stack = tracer._stack()
            is_root = not stack and threading.current_thread() is main
            parent = stack[-1] if stack else (None if is_root else tracer._root)
            frame = _Frame(name)
            if is_root:
                tracer._root = frame
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    tracer._root = None
                tracer.close(name, parent, frame.children, start, end)

        span.__wrapped__ = fn
        return span

    def close(self, name, parent, children, start, end):
        """Record one finished span and hang it under its parent."""
        with self._lock:
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_time[name] += (end - start) - union_length(children)
            if parent is not None:
                parent.children.append((start, end))
                self.edges[(parent.name, name)] += 1

    def count(self, key, amount=1.0):
        with self._lock:
            self.counters[key] += amount

    def maximum(self, key, value):
        with self._lock:
            self.counters[key] = max(self.counters[key], value)

    # -- probes that read arguments ----------------------------------------

    def _integral_probe(self, fn):
        """Counts integrand calls and abscissae, and reads the returned error."""
        signature = inspect.signature(fn)

        def integral(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            integrand = bound.arguments["fn"]
            seen = [0, 0]

            def counted(x):
                seen[0] += 1
                seen[1] += len(x)
                return integrand(x)

            bound.arguments["fn"] = counted
            value, err = fn(*bound.args, **bound.kwargs)
            panels = seen[0] // 2
            self.count("measures.adaptive_integral.panels", panels)
            self.count("measures.adaptive_integral.nodes", seen[1])
            if panels >= bound.arguments["max_panels"]:
                self.count("measures.adaptive_integral.budget_exhausted")
            self.maximum("measures.adaptive_integral.err_max", float(err))
            return value, err

        return integral

    def _jacobian_probe(self, fn):
        def jacobian(dist, w, *args, **kwargs):
            self.count("transforms.jacobian_dim_sq", len(w) ** 2)
            return fn(dist, w, *args, **kwargs)

        return jacobian

    # -- installation -------------------------------------------------------

    def install(self, package: str = "ovfree"):
        """Wrap every public function of MODULES at all its binding sites."""
        probes = {"measures.adaptive_integral": self._integral_probe,
                  "transforms.k_jacobian": self._jacobian_probe,
                  "transforms.g_jacobian": self._jacobian_probe}
        wrappers = {}
        for modname in MODULES:
            mod = importlib.import_module(f"{package}.{modname}")
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{modname}.{attr}"
                    probe = probes.get(name)
                    wrappers[obj] = self.wrap(name, probe(obj) if probe else obj)
        for modname, clsname, names in METHODS:
            cls = getattr(importlib.import_module(f"{package}.{modname}"), clsname)
            for meth in names:
                raw = inspect.getattr_static(cls, meth)
                name = f"{modname}.{clsname}.{meth}"
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                self._set(cls, meth, new)
        cli = importlib.import_module(f"{package}.cli")
        schema = cli.jsonschema
        self._set(cli, "jsonschema", types.SimpleNamespace(
            validate=self.wrap("cli.validate", schema.validate),
            ValidationError=schema.ValidationError))

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        left = [f"{m.__name__}.{a}" for m in modules
                for a, o in vars(m).items() if inspect.isfunction(o) and o in wrappers]
        for site in REBOUND:
            modname, attr = site.split(".")
            if not hasattr(getattr(sys.modules[f"{package}.{modname}"], attr),
                           "__wrapped__"):
                left.append(site)
        if left:
            self.uninstall()
            raise RuntimeError(f"tracing left unwrapped binding sites: {left}")

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- derived metrics ----------------------------------------------------

    def edge_calls(self, parents, children) -> int:
        return sum(self.edges[(p, c)] for p in parents for c in children)

    def metrics(self) -> dict:
        """Every per-layer metric of LAYER_METRICS, by name."""
        return {name: float(getter(self)) for name, _, _, getter in LAYER_METRICS}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _span(name, field):
    source = {"calls": "calls", "total_s": "total", "self_s": "self_time"}[field]
    return (f"{name}.{field}", "count" if field == "calls" else "s", "lower",
            lambda t: getattr(t, source)[name])


def _counter(key, unit, better="lower"):
    return (key, unit, better, lambda t: t.counters[key])


def _jacobian_calls(t) -> int:
    return sum(t.calls[j] for j in _JACOBIANS)


def _svm_misses(t) -> int:
    return t.edges[("moments.single_var_moment", "moments.partial_fractions")]


# (name, unit, better, getter); the order is the order of BENCHMARK.json
LAYER_METRICS = (
    _span("measures.adaptive_integral", "calls"),
    _span("measures.adaptive_integral", "total_s"),
    _counter("measures.adaptive_integral.panels", "count"),
    _counter("measures.adaptive_integral.nodes", "count"),
    _counter("measures.adaptive_integral.budget_exhausted", "count"),
    _counter("measures.adaptive_integral.err_max", "abs"),
    _span("measures.g_scalar", "calls"),
    _span("measures.g_derivative", "calls"),
    _span("ovdist.ScalarEmbedded.eval_G", "calls"),
    _span("ovdist.ScalarEmbedded.eval_G", "total_s"),
    _span("ovdist.ScalarEmbedded.eval_dG", "calls"),
    _span("ovdist.ScalarEmbedded.eval_dG", "total_s"),
    _span("ovdist.OVSemicircular.eval_G", "calls"),
    _span("ovdist.OVSemicircular.eval_G", "total_s"),
    _span("ovdist.OVSemicircular.eval_dG", "calls"),
    _span("ovdist.OVSemicircular.eval_dG", "total_s"),
    _span("ovdist.DiracB.eval_G", "calls"),
    _span("ovdist.DiracB.eval_dG", "calls"),
    _span("ovdist.mc_estimate_G", "calls"),
    _span("ovdist.mc_estimate_G", "total_s"),
    _span("linalg.inverse", "calls"),
    _span("linalg.inverse", "total_s"),
    _span("transforms.bloch_certify", "calls"),
    _span("transforms.bloch_certify", "total_s"),
    _span("transforms.bloch_certify", "self_s"),
    _span("transforms.k_map", "calls"),
    _span("transforms.k_jacobian", "calls"),
    _span("transforms.k_jacobian", "total_s"),
    _span("transforms.g_jacobian", "calls"),
    _span("transforms.g_jacobian", "total_s"),
    ("transforms.eval_dG_per_jacobian", "ratio", "lower",
     lambda t: _ratio(t.edge_calls(_JACOBIANS, _EVAL_DG), _jacobian_calls(t))),
    ("transforms.jacobian_dim_sq", "count", "lower",
     lambda t: _ratio(t.counters["transforms.jacobian_dim_sq"], _jacobian_calls(t))),
    _span("transforms.invert_G", "calls"),
    _span("transforms.invert_G", "total_s"),
    _span("transforms.invert_G", "self_s"),
    ("transforms.invert_G.newton_steps", "ratio", "lower",
     lambda t: _ratio(t.edges[("transforms.invert_G", "transforms.k_jacobian")],
                      t.calls["transforms.invert_G"])),
    _span("convolution.ConvolutionTask.certify", "total_s"),
    _span("convolution.eval_G_of_sum", "calls"),
    _span("convolution.eval_G_of_sum", "total_s"),
    _span("convolution.eval_G_of_sum", "self_s"),
    ("convolution.eval_G_of_sum.newton_steps", "ratio", "lower",
     lambda t: _ratio(t.edges[("convolution.eval_G_of_sum", "transforms.g_jacobian")],
                      t.calls["convolution.eval_G_of_sum"])),
    _span("convolution.truncation_sweep", "total_s"),
    _span("moments.mixed_moment", "calls"),
    _span("moments.mixed_moment", "total_s"),
    _span("moments.single_var_moment", "calls"),
    ("moments.single_var_moment.misses", "count", "lower", _svm_misses),
    ("moments.single_var_moment.hit_ratio", "ratio", "higher",
     lambda t: _ratio(t.calls["moments.single_var_moment"] - _svm_misses(t),
                      t.calls["moments.single_var_moment"])),
    _span("moments.matrix_G_via_neumann", "calls"),
    _span("moments.matrix_G_via_neumann", "total_s"),
    _span("moments.fbcs_check", "total_s"),
    _span("killer.build_killer", "total_s"),
    _span("cli.run_config", "calls"),
    _span("cli.run_config", "self_s"),
    ("cli.validate_s", "s", "lower", lambda t: t.total["cli.validate"]),
)

# Spans that must record calls on a workload: where the layer table says the
# layer does its work.  A traced run with any of them at zero fails.
REQUIRED_CALLS = {
    "convolve-cauchy": (
        "measures.adaptive_integral", "ovdist.ScalarEmbedded.eval_G",
        "ovdist.ScalarEmbedded.eval_dG", "transforms.k_jacobian",
        "transforms.g_jacobian", "transforms.invert_G",
        "convolution.ConvolutionTask.certify", "convolution.eval_G_of_sum"),
    "certify-ov": (
        "ovdist.OVSemicircular.eval_G", "ovdist.OVSemicircular.eval_dG",
        "ovdist.DiracB.eval_G", "ovdist.DiracB.eval_dG", "ovdist.mc_estimate_G",
        "linalg.inverse", "transforms.bloch_certify", "transforms.k_map",
        "transforms.k_jacobian", "transforms.g_jacobian"),
    "moments-short": (
        "measures.adaptive_integral", "measures.g_scalar", "measures.g_derivative",
        "convolution.truncation_sweep", "moments.mixed_moment",
        "moments.single_var_moment", "moments.matrix_G_via_neumann",
        "moments.fbcs_check", "killer.build_killer", "cli.run_config",
        "cli.validate"),
}


def missing_layers(tracer: Tracer, workload: str) -> list:
    return [name for name in REQUIRED_CALLS[workload] if tracer.calls[name] == 0]
