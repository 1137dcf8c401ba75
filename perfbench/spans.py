"""Spans around the calls into each periodpoly layer, recorded from outside.

A ``Tracer`` replaces public library functions with wrappers that record a
span (name, start, end, parent) per call.  The CLI imports names with
``from .x import y``, so each wrapper is installed in every periodpoly
module that holds the original function, not just where it is defined.
``mpmath.loggamma`` gets a counting wrapper only: it is called tens of
thousands of times per analysis and a span per call would distort the run.

Spans live in memory; ``uninstall`` restores every original, so untraced
passes in the same process run the unwrapped library.
"""

import functools
import sys
import time
from collections import Counter

# (module, function or Class.method, span name)
TRACED = [
    ("sympow", "sym_lfunction_data", "sympow.coeffs"),
    ("sympow", "ap_count", "sympow.ap_count"),
    ("lfunc", "special_values", "lfunc.special_values"),
    ("lfunc", "verify_hypothesis", "lfunc.verify_hypothesis"),
    ("files", "parse_curve_file", "files.parse"),
    ("files", "parse_eps_overrides", "files.parse"),
    ("files", "parse_coefficient_file", "files.parse"),
    ("files", "sha256_file", "files.parse"),
    ("files", "SpecialValuesCache.load", "files.cache_load"),
    ("files", "SpecialValuesCache.store", "files.cache_store"),
    ("files", "write_report", "files.report"),
    ("files", "canonical_report_text", "files.report"),
    ("polys", "build_p_poly", "polys.build"),
    ("polys", "build_P_poly", "polys.build"),
    ("polys", "build_Q_poly", "polys.build"),
    ("polys", "l_value_ratios", "polys.build"),
    ("polys", "q_decomposition_residual", "polys.build"),
    ("polys", "s_tail_parts", "polys.build"),
    ("zeros", "poly_roots", "zeros.poly_roots"),
    ("zeros", "circle_report", "zeros.circle_report"),
    ("zeros", "trig_sign_changes", "zeros.trig_sign_changes"),
    ("zeros", "count_disc_zeros", "zeros.disc_count"),
    ("gates", "theorem_gate", "gates.theorem_gate"),
    ("gates", "rouche_transfer", "gates.rouche_transfer"),
    ("gates", "compute_A_m", "gates.compute_A_m"),
    ("rv", "rv_transform", "rv.rv_transform"),
    ("rv", "zeta_poly_closed_form", "rv.closed_form"),
    ("rv", "check_zeta_properties", "rv.check_zeta"),
    ("cli", "main", "cli.main"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans and counts; install() wraps the library, uninstall()
    puts it back."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            tracer._observe(name, result)
            return result

        return wrapper

    def _observe(self, name, result):
        if name == "files.cache_load" and result is not None:
            self.counts["files.cache_hits"] += 1
        elif name == "zeros.disc_count":
            self.counts["zeros.contour_points"] += result.points

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def install(self):
        import mpmath

        import periodpoly.cli  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "periodpoly" or n.startswith("periodpoly.")]
        for mod_name, attr, span_name in TRACED:
            home = sys.modules["periodpoly." + mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, self._wrap(cls.__dict__[meth],
                                                  span_name))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, span_name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

        loggamma = mpmath.loggamma
        counts = self.counts

        def counted_loggamma(*args, **kwargs):
            counts["lfunc.loggamma_calls"] += 1
            return loggamma(*args, **kwargs)

        self._patch(mpmath, "loggamma", counted_loggamma)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches = []


def _top_union(spans, names):
    """Total time of spans named in ``names``, not counting a span whose
    ancestor is also in ``names`` (so nested calls are not counted twice)."""
    total = 0.0
    for span in spans:
        if span.name not in names:
            continue
        up = span.parent
        while up is not None and up.name not in names:
            up = up.parent
        if up is None:
            total += span.duration
    return total


def _self_time(spans, name):
    """Duration of spans called ``name`` minus that of their direct
    children."""
    child = Counter()
    for span in spans:
        if span.parent is not None:
            child[id(span.parent)] += span.duration
    return sum(s.duration - child[id(s)] for s in spans if s.name == name)


def layer_metrics(spans, counts):
    """Per-layer figures for one traced pass, keyed by metric name."""
    calls = Counter(s.name for s in spans)
    lookups = calls["files.cache_load"]

    def incl(*names):
        return _top_union(spans, set(names))

    return {
        "sympow.coeffs_s": incl("sympow.coeffs"),
        "sympow.ap_count_s": incl("sympow.ap_count"),
        "sympow.ap_count_calls": calls["sympow.ap_count"],
        "lfunc.special_values_s": incl("lfunc.special_values"),
        "lfunc.special_values_calls": calls["lfunc.special_values"],
        "lfunc.loggamma_calls": counts["lfunc.loggamma_calls"],
        "lfunc.verify_hypothesis_s": incl("lfunc.verify_hypothesis"),
        "files.cache_lookups": lookups,
        "files.cache_hits": counts["files.cache_hits"],
        "files.cache_load_s": incl("files.cache_load"),
        "files.cache_store_s": incl("files.cache_store"),
        "files.parse_s": incl("files.parse"),
        "files.report_s": incl("files.report"),
        "polys.build_s": incl("polys.build"),
        "gates.theorem_gate_s": incl("gates.theorem_gate"),
        "gates.rouche_transfer_s": incl("gates.rouche_transfer"),
        "gates.compute_A_m_s": incl("gates.compute_A_m"),
        "zeros.poly_roots_s": incl("zeros.poly_roots"),
        "zeros.poly_roots_calls": calls["zeros.poly_roots"],
        "zeros.circle_report_s": incl("zeros.circle_report"),
        "zeros.trig_sign_changes_s": incl("zeros.trig_sign_changes"),
        "zeros.disc_count_s": incl("zeros.disc_count"),
        "zeros.contour_points": counts["zeros.contour_points"],
        "rv.rv_transform_s": incl("rv.rv_transform"),
        "rv.closed_form_s": incl("rv.closed_form"),
        "rv.check_zeta_self_s": _self_time(spans, "rv.check_zeta"),
        "cli.self_s": _self_time(spans, "cli.main"),
    }
