"""Spans taken from outside the program, and the per-layer metrics.

``install`` replaces public functions of the ``twistnp`` modules with
wrappers, at the name their caller looks up (``twistnp.cli.l_polynomial``,
``twistnp.dwork.char_series``, a method on its class).  Each call records a
span (name, start, end, parent, elements) in memory; the job writes the
list out when it ends.  Only calls made at most about 10^4 times per round
are wrapped, so the wrappers stay cheap.

Self time is a span's duration minus the time its child spans cover.
Metrics named ``*_self_s`` sum self times; the other ``*_s`` metrics sum
whole span durations.
"""

from __future__ import annotations

import functools
import importlib
import time


def _char_series_name(args, kwargs):
    method = args[2] if len(args) > 2 else kwargs.get("method", "newton")
    return f"dwork.char_series.{method}"


def _field_elems(args, kwargs):
    p, m = args[0], args[1]  # trace_count_matrix(p, m, ...)
    return p**m - 1


def _tadic_elems(args, kwargs):
    params, k = args[0], args[1]  # exp_sum_Tadic(params, k, ...)
    return params.p ** (params.a * k) - 1


# (owner, attribute, span name or name function, element-count function)
WRAPS = (
    ("twistnp.cli", "run_grid", "cli.run_grid", None),
    ("twistnp.cli", "sweep_record", "cli.sweep_record", None),
    ("twistnp.cli", "lower_bound_polygon", "polygon.lower_bound_polygon", None),
    ("twistnp.cli", "hasse_certificate", "hasse.hasse_certificate", None),
    ("twistnp.cli", "l_polynomial", "lfunction.l_polynomial", None),
    ("twistnp.cli", "trace_consistency", "dwork.trace_consistency", None),
    ("twistnp.lfunction", "l_polynomial", "lfunction.l_polynomial", None),
    ("twistnp.lfunction", "classical_sums_multi", "lfunction.classical_sums_multi", None),
    ("twistnp.lfunction", "trace_count_matrix", "lfunction.trace_count_matrix", _field_elems),
    ("twistnp.lfunction:SubfieldDescent", "__init__", "lfunction.SubfieldDescent", None),
    ("twistnp.lfunction:SubfieldDescent", "descend_ram", "lfunction.descend_ram", None),
    ("twistnp.dwork", "exp_sum_Tadic", "lfunction.exp_sum_Tadic", _tadic_elems),
    ("twistnp.dwork", "psi_a_matrix", "dwork.psi_a_matrix", None),
    ("twistnp.dwork", "char_series", _char_series_name, None),
    ("twistnp.dwork:PsiMatrix", "trace_power", "dwork.trace_power", None),
    ("twistnp.hasse", "hasse_number", "hasse.hasse_number", None),
    ("twistnp.hasse", "hasse_constant", "hasse.hasse_constant", None),
    ("twistnp.hasse", "optimal_perm_sets", "combinatorics.optimal_perm_sets", None),
    ("twistnp.padic:ZqContext", "__init__", "padic.ZqContext", None),
)


class Tracer:
    """Nested spans of one single-threaded job, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, elems]
        self._open: list[int] = []

    def begin(self, name: str, elems: int = 0, at: float | None = None) -> None:
        parent = self._open[-1] if self._open else -1
        start = time.perf_counter() if at is None else at
        self.spans.append([name, start, None, parent, elems])
        self._open.append(len(self.spans) - 1)

    def end(self, at: float | None = None) -> None:
        self.spans[self._open.pop()][2] = time.perf_counter() if at is None else at

    def wrap(self, owner, attr: str, name, elems=None) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name(args, kwargs) if callable(name) else name,
                       elems(args, kwargs) if elems else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        setattr(owner, attr, traced)


def install(tracer: Tracer) -> None:
    for owner_path, attr, name, elems in WRAPS:
        module, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        tracer.wrap(owner, attr, name, elems)


def self_times(spans: list[list]) -> list[float]:
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans: list[list], context_misses: int) -> dict[str, float]:
    """Per-layer metrics of one traced job."""
    selfs = self_times(spans)
    total, own, calls, elems = {}, {}, {}, {}
    for (name, start, end, _, n), s in zip(spans, selfs):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
        elems[name] = elems.get(name, 0) + n

    def T(name):
        return total.get(name, 0.0)

    def S(name):
        return own.get(name, 0.0)

    def C(name):
        return calls.get(name, 0)

    enum_s = T("lfunction.trace_count_matrix")
    enum_elems = elems.get("lfunction.trace_count_matrix", 0)
    return {
        "lfunction.enum_s": enum_s,
        "lfunction.enum_elems": enum_elems,
        "lfunction.enum_ns_per_elem": enum_s * 1e9 / enum_elems if enum_elems else 0.0,
        "lfunction.enum_passes": C("lfunction.trace_count_matrix"),
        "lfunction.sums_self_s": S("lfunction.classical_sums_multi"),
        "lfunction.newton_self_s": S("lfunction.l_polynomial"),
        "lfunction.descent_s": T("lfunction.SubfieldDescent") + T("lfunction.descend_ram"),
        "lfunction.tadic_sum_s": T("lfunction.exp_sum_Tadic"),
        "lfunction.tadic_elems": elems.get("lfunction.exp_sum_Tadic", 0),
        "dwork.operator_s": T("dwork.psi_a_matrix"),
        "dwork.operator_builds": C("dwork.psi_a_matrix"),
        "dwork.charseries_newton_s": T("dwork.char_series.newton"),
        "dwork.charseries_minors_s": T("dwork.char_series.minors"),
        "dwork.trace_power_s": T("dwork.trace_power"),
        "dwork.trace_check_self_s": S("dwork.trace_consistency"),
        "hasse.certificate_s": T("hasse.hasse_certificate"),
        "hasse.constant_s": T("hasse.hasse_constant"),
        "hasse.number_calls": C("hasse.hasse_number"),
        "combinatorics.optimal_sets_s": T("combinatorics.optimal_perm_sets"),
        "combinatorics.optimal_sets_calls": C("combinatorics.optimal_perm_sets"),
        "polygon.lower_bound_s": T("polygon.lower_bound_polygon"),
        "padic.context_builds": context_misses,
        "padic.context_s": T("padic.ZqContext"),
        "cli.record_s": T("cli.sweep_record"),
        "cli.records": C("cli.sweep_record"),
        "cli.grid_self_s": S("cli.run_grid"),
        "trace.spans": len(spans),
    }
