"""Outside-in tracing of the calls between lirep modules.

For a traced run only, each name that one lirep module calls in another
(and a few calls inside a module that separate one layer from the next) is
replaced on its module by a wrapper that records a span: name, parent span,
start and end. Counters are kept at the same boundaries. Nothing inside
`src/` is changed, and `uninstall` puts every original back.

Spans stay in memory as a flat integer array and are reduced at the end: a
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict

# Per-layer metrics, in the order they are reported: name -> unit. Counts
# and times are per request of the traced loop, so that they compare across
# commits however many requests the loop got through; ratios and the cache
# size at the end of the run are not divided.
_ROUTE_TAGS = (
    "series", "classical-exp", "classical-log", "theorem6a", "theorem6b",
    "theorem6c", "bernoulli7a", "bernoulli7b", "bernoulli7c", "inversion-int",
)
_N, _MS, _RATIO = "count/req", "ms/req", "ratio"
PER_LAYER: dict[str, str] = {
    "cli.main.calls": _N,
    "cli.main.self_ms": _MS,
    "cli.rep_all.useful_ratio": _RATIO,
    "polylog.li_eval.calls": _N,
    "polylog.li_eval.self_ms": _MS,
    **{f"polylog.route.{tag}.{m}": u for tag in _ROUTE_TAGS for m, u in (("calls", _N), ("ms", _MS))},
    "polylog.series.calls": _N,
    "polylog.series.terms": _N,
    "polylog.series.ms": _MS,
    "polylog.kernel.calls": _N,
    "polylog.kernel.points": _N,
    "polylog.kernel.self_ms": _MS,
    "polylog.node_cache.lookups": _N,
    "polylog.node_cache.misses": _N,
    "polylog.node_cache.hit_ratio": _RATIO,
    "polylog.node_cache.self_ms": _MS,
    "polylog.node_cache.entries": "count",
    "clausen.pair.calls": _N,
    "clausen.series.calls": _N,
    "clausen.series.terms": _N,
    "clausen.series.ms": _MS,
    "clausen.reflection.calls": _N,
    "clausen.reflection.ms": _MS,
    "special.hurwitz_zeta.calls": _N,
    "special.hurwitz_zeta.self_ms": _MS,
    "special.gamma_complex.calls": _N,
    "special.gamma_complex.self_ms": _MS,
    "special.riemann_zeta.calls": _N,
    "special.riemann_zeta.self_ms": _MS,
    "bernoulli.bernoulli_number.calls": _N,
    "bernoulli.bernoulli_number.self_ms": _MS,
    "bernoulli.bernoulli_poly.calls": _N,
    "bernoulli.bernoulli_poly.points": _N,
    "bernoulli.bernoulli_poly.self_ms": _MS,
    "quadrature.integrate.calls": _N,
    "quadrature.integrate.self_ms": _MS,
    "quadrature.panel.calls": _N,
    "quadrature.panel.self_ms": _MS,
    "quadrature.evaluations": _N,
    "quadrature.unconverged": _N,
}

# (span name, module, attribute) for every wrapped name. Module names are
# relative to the lirep package; "polylog._NodeCache.channel" patches a method.
WRAPPED = (
    ("cli.main", "cli", "main"),
    ("polylog.li_eval", "polylog", "li_eval"),
    ("polylog.li_eval", "cli", "li_eval"),
    ("polylog.series", "polylog", "li_series"),
    ("polylog.series", "cli", "li_series"),
    ("polylog.li_integral_classical", "polylog", "li_integral_classical"),
    ("polylog.li_theorem_sin", "polylog", "li_theorem_sin"),
    ("polylog.li_theorem_cos", "polylog", "li_theorem_cos"),
    ("polylog.li_bernoulli_odd", "polylog", "li_bernoulli_odd"),
    ("polylog.li_bernoulli_even", "polylog", "li_bernoulli_even"),
    ("polylog.li_inversion_integer", "polylog", "li_inversion_integer"),
    ("polylog.zeta_odd", "cli", "_zeta_odd"),
    ("polylog.lemma_integral", "cli", "lemma_integral"),
    ("polylog.lemma_expected", "cli", "lemma_expected"),
    ("polylog.series_truncation", "polylog", "_series_truncation"),
    ("polylog.kernel", "polylog", "kernel"),
    ("polylog.node_cache", "polylog", "_NodeCache.channel"),
    ("clausen.pair", "polylog", "_pair_cheapest"),
    ("clausen.series", "clausen", "_series_pair"),
    ("clausen.truncation_index", "clausen", "_truncation_index"),
    ("clausen.reflection", "clausen", "clausen_via_hurwitz"),
    ("special.hurwitz_zeta", "clausen", "hurwitz_zeta"),
    ("special.gamma_complex", "polylog", "gamma_complex"),
    ("special.gamma_complex", "clausen", "gamma_complex"),
    ("special.riemann_zeta", "clausen", "riemann_zeta"),
    ("special.riemann_zeta", "cli", "riemann_zeta"),
    ("bernoulli.bernoulli_number", "special", "bernoulli_number"),
    ("bernoulli.bernoulli_number", "quadrature", "bernoulli_number"),
    ("bernoulli.bernoulli_poly", "polylog", "bernoulli_poly"),
    ("bernoulli.bernoulli_poly", "clausen", "bernoulli_poly"),
    ("bernoulli.bernoulli_poly", "quadrature", "bernoulli_poly"),
    ("quadrature.integrate", "polylog", "integrate_adaptive"),
    ("quadrature.panel", "quadrature", "gauss_kronrod_panel"),
)


class Tracer:
    """Span recorder installed by patching module attributes."""

    def __init__(self, lirep):
        import numpy

        self._lirep = lirep
        self._np = numpy
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # Flat records of (name id, parent index, start ns, end ns).
        self.spans = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.route_ns: Counter = Counter()
        self._rep_all: list[bool] = []  # per open cli.main span: is it eval --rep=all?
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrappers: dict[tuple[str, int], object] = {}
        for span, module, attr in WRAPPED:
            owner = getattr(self._lirep, module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            key = (span, id(original))
            if key not in wrappers:
                wrappers[key] = self._wrap(span, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[key])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        before, after = self._before.get(name), self._after.get(name)
        if name == "quadrature.integrate":
            integrand = self._wrap("quadrature.integrand", lambda f, t: f(t))

            def fn_with_integrand(f, *args, _fn=fn, **kwargs):
                return _fn(lambda t: integrand(f, t), *args, **kwargs)

            inner = fn_with_integrand
        else:
            inner = fn

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            i = len(spans) >> 2
            spans.extend((nid, stack[-1] if stack else -1, clock(), 0))
            stack.append(i)
            result = None
            try:
                result = inner(*args, **kwargs)
                return result
            finally:
                stack.pop()
                spans[4 * i + 3] = clock()
                if after is not None:
                    after(self, args, result, spans[4 * i + 3] - spans[4 * i + 2])

        return wrapper

    # -- counters taken from arguments and results --------------------------

    def _enter_main(self, args):
        argv = args[0] if args else None
        self._rep_all.append(bool(argv) and argv[0] == "eval" and "--rep=all" in argv)

    def _leave_main(self, args, result, dur):
        self._rep_all.pop()

    def _after_li_eval(self, args, result, dur):
        if result is not None:
            tag = result.route.value
        else:
            tag = args[0].representation.value  # raised: charge the requested route
        self.counts[f"polylog.route.{tag}.calls"] += 1
        self.route_ns[tag] += dur
        if self._rep_all and self._rep_all[-1]:
            self.counts["cli.rep_all.attempts"] += 1
            self.counts["cli.rep_all.rows"] += result is not None

    def _after_series_truncation(self, args, result, dur):
        if result is not None:
            self.counts["polylog.series.terms"] += result[0]

    def _after_truncation_index(self, args, result, dur):
        if result is not None:
            self.counts["clausen.series.terms"] += result

    def _after_kernel(self, args, result, dur):
        self.counts["polylog.kernel.points"] += int(self._np.size(args[2]))

    def _after_channel(self, args, result, dur):
        self.counts["polylog.node_cache.lookups"] += len(args[1])

    def _after_bernoulli_poly(self, args, result, dur):
        self.counts["bernoulli.bernoulli_poly.points"] += int(self._np.size(args[1]))

    def _after_integrate(self, args, result, dur):
        if result is not None:
            self.counts["quadrature.evaluations"] += result.evaluations
            self.counts["quadrature.unconverged"] += not result.converged

    _before = {"cli.main": _enter_main}
    _after = {
        "cli.main": _leave_main,
        "polylog.li_eval": _after_li_eval,
        "polylog.series_truncation": _after_series_truncation,
        "clausen.truncation_index": _after_truncation_index,
        "polylog.kernel": _after_kernel,
        "polylog.node_cache": _after_channel,
        "bernoulli.bernoulli_poly": _after_bernoulli_poly,
        "quadrature.integrate": _after_integrate,
    }

    # -- reduction ------------------------------------------------------------

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms."""
        np = self._np
        rec = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4)
        names, parent = rec[:, 0], rec[:, 1]
        dur = (rec[:, 3] - rec[:, 2]).astype(float)
        child = np.zeros(len(rec))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        table: dict[str, dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            table[name] = {
                "calls": int(sel.sum()),
                "ms": float(dur[sel].sum()) / 1e6,
                "self_ms": float(self_ns[sel].sum()) / 1e6,
            }
        return table

    def per_layer(self, requests: int) -> dict[str, float]:
        """Every metric of PER_LAYER, from spans and counters, over `requests` requests."""
        spans = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0}, self.span_table())
        c = self.counts
        lookups = c["polylog.node_cache.lookups"]
        misses = spans["clausen.pair"]["calls"]
        caches = self._lirep.polylog._caches
        out = {
            "cli.main.calls": spans["cli.main"]["calls"],
            "cli.main.self_ms": spans["cli.main"]["self_ms"],
            "cli.rep_all.useful_ratio": _ratio(c["cli.rep_all.rows"], c["cli.rep_all.attempts"]),
            "polylog.li_eval.calls": spans["polylog.li_eval"]["calls"],
            "polylog.li_eval.self_ms": spans["polylog.li_eval"]["self_ms"],
            "polylog.series.calls": spans["polylog.series"]["calls"],
            "polylog.series.terms": c["polylog.series.terms"],
            "polylog.series.ms": spans["polylog.series"]["ms"],
            "polylog.kernel.calls": spans["polylog.kernel"]["calls"],
            "polylog.kernel.points": c["polylog.kernel.points"],
            "polylog.kernel.self_ms": spans["polylog.kernel"]["self_ms"],
            "polylog.node_cache.lookups": lookups,
            "polylog.node_cache.misses": misses,
            "polylog.node_cache.hit_ratio": _ratio(lookups - misses, lookups),
            "polylog.node_cache.self_ms": spans["polylog.node_cache"]["self_ms"],
            "polylog.node_cache.entries": sum(len(cache.pairs) for cache in list(caches.values())),
            "clausen.pair.calls": misses,
            "clausen.series.calls": spans["clausen.series"]["calls"],
            "clausen.series.terms": c["clausen.series.terms"],
            "clausen.series.ms": spans["clausen.series"]["ms"],
            "clausen.reflection.calls": spans["clausen.reflection"]["calls"],
            "clausen.reflection.ms": spans["clausen.reflection"]["ms"],
            "bernoulli.bernoulli_poly.points": c["bernoulli.bernoulli_poly.points"],
            "quadrature.integrate.calls": spans["quadrature.integrate"]["calls"],
            "quadrature.integrate.self_ms": spans["quadrature.integrate"]["self_ms"],
            "quadrature.panel.calls": spans["quadrature.panel"]["calls"],
            "quadrature.panel.self_ms": spans["quadrature.panel"]["self_ms"],
            "quadrature.evaluations": c["quadrature.evaluations"],
            "quadrature.unconverged": c["quadrature.unconverged"],
        }
        for tag in _ROUTE_TAGS:
            out[f"polylog.route.{tag}.calls"] = c[f"polylog.route.{tag}.calls"]
            out[f"polylog.route.{tag}.ms"] = self.route_ns[tag] / 1e6
        for name in ("special.hurwitz_zeta", "special.gamma_complex", "special.riemann_zeta",
                     "bernoulli.bernoulli_number", "bernoulli.bernoulli_poly"):
            out[f"{name}.calls"] = spans[name]["calls"]
            out[f"{name}.self_ms"] = spans[name]["self_ms"]
        return {
            name: out[name] / requests if unit in (_N, _MS) else out[name]
            for name, unit in PER_LAYER.items()
        }


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when nothing was attempted (the layer did no work)."""
    return num / den if den else 0.0
