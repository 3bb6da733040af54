"""Per-layer spans around the program's public functions.

`Tracer.install()` replaces every public function and every public
method of the `derived_kernel` modules by a wrapper that times the call
and counts it.  A function is replaced in every module that imported
it, and a method on the class that defines it.  Spans nest: the self
time of a call is its duration minus the time spent in wrapped calls it
made, so each layer's self time excludes the layers it calls.

Private helpers, constructors and operators are not wrapped; their time
counts to the public call they run in.  The public helpers in
`LEAF_HELPERS` are left unwrapped for the same reason: they are cheap
accessors or arithmetic called up to hundreds of thousands of times per
pass, and a span around each would cost more than the work it measures.

Nothing here changes arguments or results, so reports stay byte-identical
with tracing on; the workload process checks that for every job.
"""

import inspect
import sys
from collections import defaultdict
from time import perf_counter

# module -> layer; modules not listed (errors, parallel) are not wrapped
LAYERS = {
    "exact_linear": "exact_linear",
    "dga": "dgmodules",
    "dgmodules": "dgmodules",
    "charts": "charts",
    "presentations": "presentations",
    "cech": "cech",
    "spectral": "spectral",
    "strong": "strong",
    "twisting": "twisting",
    "k_theory": "k_theory",
    "cli": "cli",
    "specfiles": "specfiles",
    "grammar": "specfiles",
}

LEAF_HELPERS = {
    "exact_linear.vec_add", "exact_linear.vec_scale",
    "exact_linear.vec_axpy", "exact_linear.RatMatrix.column",
    "exact_linear.TrackedEchelon.coordinates",
    "dga.DgaElement.is_zero", "dga.DgaElement.scale",
    "dga.DgaElement.term_bidegree", "dga.DgaElement.bidegree",
    "dga.DgaElement.is_homogeneous", "dga.DgaElement.differential",
    "dga.KoszulDga.element", "dga.KoszulDga.zero", "dga.KoszulDga.one",
    "dga.KoszulDga.variable", "dga.KoszulDga.poly",
    "dga.KoszulDga.e_subsets", "dga.monomials", "dga.laurent_monomials",
    "dga.as_element",
    "dgmodules.chart_bounds", "dgmodules.DgModule.slice_basis",
    "dgmodules.HomologyData.coords",
    "cech.StandardCover.charts",
    "spectral.DoubleComplex.dim", "spectral.DoubleComplex.vmat",
    "spectral.DoubleComplex.hmat", "spectral.TotalComplex.filtration_column",
    "charts.module_depth_hint",
}

# calls whose distinct (object, arguments) keys are counted as `.built`
BUILT = {"dgmodules.DgModule.slice_matrix", "dgmodules.DgModule.homology",
         "presentations.PresentedModule.localized_slice"}

# per-layer metric name -> (source, wrapped callable) where source is one
# of calls, self_s, built, nnz, nnz_in, pages, layer_self_s
PER_LAYER = {}


def _metric(name, source, target):
    PER_LAYER[name] = (source, target)


for _layer in ("exact_linear", "dgmodules", "charts", "presentations",
               "cech", "spectral", "strong", "twisting", "k_theory", "cli",
               "specfiles"):
    _metric(_layer + ".self_s", "layer_self_s", _layer)
for _name, _target, _sources in [
    ("exact_linear.kernel_basis", "exact_linear.kernel_basis",
     ("calls", "self_s", "nnz_in")),
    ("exact_linear.rank", "exact_linear.rank", ("calls", "self_s")),
    ("exact_linear.solve", "exact_linear.solve", ("calls", "self_s")),
    ("exact_linear.RatMatrix.apply", "exact_linear.RatMatrix.apply",
     ("calls", "self_s")),
    ("exact_linear.smith_normal_form", "exact_linear.smith_normal_form",
     ("self_s",)),
    ("dgmodules.slice_matrix", "dgmodules.DgModule.slice_matrix",
     ("calls", "built", "self_s", "nnz")),
    ("dgmodules.apply_d", "dgmodules.DgModule.apply_d", ("calls", "self_s")),
    ("dgmodules.homology", "dgmodules.DgModule.homology",
     ("calls", "built")),
    ("dgmodules.twist", "dgmodules.DgModule.twist", ("calls",)),
    ("charts.chart_homology_vanishes", "charts.chart_homology_vanishes",
     ("calls", "self_s")),
    ("presentations.extract_presentation",
     "presentations.extract_presentation", ("calls",)),
    ("presentations.saturates_to_unit", "presentations.saturates_to_unit",
     ("calls",)),
    ("presentations.localized_slice",
     "presentations.PresentedModule.localized_slice", ("calls", "built")),
    ("cech.build_cech_double_complex", "cech.build_cech_double_complex",
     ("calls",)),
    ("cech.sections_homotopy", "cech.sections_homotopy", ("calls",)),
    ("cech.sheaf_cohomology", "cech.sheaf_cohomology", ("calls",)),
    ("spectral.spectral_sequence", "spectral.DoubleComplex.spectral_sequence",
     ("calls",)),
    ("spectral.total_homology", "spectral.TotalComplex.homology",
     ("calls",)),
    ("strong.is_short_exact", "strong.is_short_exact", ("calls",)),
    ("strong.nullhomotopy_witness", "strong.nullhomotopy_witness",
     ("calls", "self_s")),
    ("twisting.twist_search", "twisting.twist_search", ("calls",)),
    ("twisting.global_generation_search",
     "twisting.global_generation_search", ("calls",)),
    ("k_theory.k0_group", "k_theory.k0_group", ("calls",)),
    ("k_theory.k0_class", "k_theory.k0_class", ("calls",)),
    ("k_theory.resolve_perfect", "k_theory.resolve_perfect", ("calls",)),
]:
    for _source in _sources:
        _metric("%s.%s" % (_name, _source), _source, _target)
_metric("spectral.pages", "pages", "spectral.DoubleComplex.spectral_sequence")

UNITS = {"self_s": "s", "layer_self_s": "s"}


def metric_unit(name):
    return UNITS.get(PER_LAYER[name][0], "count")


class Tracer:
    def __init__(self):
        self.open_spans = []       # child-time accumulator per open span
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(int)   # (target, source) -> count
        self.seen = set()          # built keys of the current job
        self.keep = []             # objects behind those keys
        self.layer_of = {}         # target -> layer

    # -- installing --------------------------------------------------------

    def install(self):
        modules = {name.rsplit(".", 1)[1]: mod
                   for name, mod in list(sys.modules.items())
                   if name.startswith("derived_kernel.")}
        replaced = {}              # id(original) -> wrapper
        for short, mod in sorted(modules.items()):
            layer = LAYERS.get(short)
            if layer is None:
                continue
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                target = "%s.%s" % (short, name)
                if inspect.isclass(obj):
                    self._wrap_class(obj, target, layer)
                elif self._wrappable(obj, target):
                    replaced[id(obj)] = self._wrap(obj, target, layer)
        # rebind every imported copy of a wrapped function
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(mod, name, wrapper)

    @staticmethod
    def _wrappable(fn, target):
        return (inspect.isfunction(fn) and target not in LEAF_HELPERS
                and not inspect.isgeneratorfunction(fn))

    def _wrap_class(self, cls, prefix, layer):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            target = "%s.%s" % (prefix, name)
            if isinstance(attr, (classmethod, staticmethod)):
                if self._wrappable(attr.__func__, target):
                    setattr(cls, name, type(attr)(
                        self._wrap(attr.__func__, target, layer)))
            elif self._wrappable(attr, target):
                setattr(cls, name, self._wrap(attr, target, layer))

    def _wrap(self, fn, target, layer):
        self.layer_of[target] = layer
        stack = self.open_spans
        calls, self_s = self.calls, self.self_s
        post = self._post_hook(target)

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                calls[target] += 1
                self_s[target] += dur - child
            if post is not None:
                post(args, kwargs, result)
            return result

        span.__name__ = fn.__name__
        span.__qualname__ = fn.__qualname__
        span.__doc__ = fn.__doc__
        span.__wrapped__ = fn
        return span

    def _post_hook(self, target):
        extra = self.extra
        if target == "exact_linear.kernel_basis":
            def post(args, kwargs, result):
                extra[(target, "nnz_in")] += len(args[0].entries)
            return post
        if target == "spectral.DoubleComplex.spectral_sequence":
            def post(args, kwargs, result):
                extra[(target, "pages")] += len(result.pages)
            return post
        if target in BUILT:
            seen, keep = self.seen, self.keep
            count_nnz = target == "dgmodules.DgModule.slice_matrix"

            def post(args, kwargs, result):
                key = (target, id(args[0]), args[1:],
                       tuple(sorted(kwargs.items())))
                if key in seen:
                    return
                seen.add(key)
                keep.append(args[0])
                extra[(target, "built")] += 1
                if count_nnz:
                    extra[(target, "nnz")] += len(result.entries)
            return post
        return None

    # -- reading -----------------------------------------------------------

    def end_job(self):
        """Forget the built keys of the finished job: its objects are gone
        once the job returns, and their ids may be reused."""
        self.seen.clear()
        self.keep.clear()

    def take(self):
        """Per-layer metrics since the last call, then reset."""
        layer_self = defaultdict(float)
        for target, t in self.self_s.items():
            layer_self[self.layer_of[target]] += t
        out = {}
        for name, (source, target) in sorted(PER_LAYER.items()):
            if source == "layer_self_s":
                out[name] = layer_self[target]
            elif source == "calls":
                out[name] = self.calls[target]
            elif source == "self_s":
                out[name] = self.self_s[target]
            else:
                out[name] = self.extra[(target, source)]
        functions = {t: {"calls": self.calls[t], "self_s": self.self_s[t]}
                     for t in sorted(self.calls)}
        self.calls.clear()
        self.self_s.clear()
        self.extra.clear()
        return out, functions
