"""Per-layer metrics derived from one traced solve's spans.

Two kinds of time appear here. A *duration* sum adds span lengths, so
spans that ran at once on the ``sweep_k`` pool add up to more than the
wall time they covered. A *share* splits each instant of wall time equally
among the spans working at that instant (open spans with no open child),
so the shares of all layers add up to the time the top-level spans cover:
``<layer>.self_s`` is a share.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import LAYERS

# Computed, not measured, work per call. A complex Householder QR of an
# m x n matrix costs 8 (m n^2 - n^3 / 3) real flops for R and as many again
# for the thin Q. Assembly writes one complex128 entry per matrix element.
def qr_flops(rows: int, cols: int) -> float:
    return 16.0 * (rows * cols * cols - cols**3 / 3.0)


def assembly_bytes(rows: int, cols: int) -> float:
    return 16.0 * rows * cols


# Metric name -> unit, in the order printed. bench/README.md defines each.
METRICS = {
    "sweep.sweep_k_s": "s",
    "sweep.refine_s": "s",
    "sweep.multiplicity_s": "s",
    "sweep.indicator_calls.sweep": "count",
    "sweep.indicator_calls.refine": "count",
    "sweep.indicator_calls.multiplicity": "count",
    "sweep.evals_per_dip": "count",
    "sweep.interior_seeds": "count",
    "sweep.indicator_ms_pool_p50": "ms",
    "sweep.indicator_ms_serial_p50": "ms",
    "sweep.concurrency": "ratio",
    "sweep.factorize_s": "s",
    "sweep.factorize_gflops_computed": "GFLOP/s",
    "sweep.k_err_max": "1/R",
    "sweep.self_s": "s",
    "herglotz.assemble_calls": "count",
    "herglotz.assemble_s": "s",
    "herglotz.assemble_gbps_computed": "GB/s",
    "herglotz.eval_calls": "count",
    "herglotz.eval_s": "s",
    "herglotz.self_s": "s",
    "spectra.static_integral_calls": "count",
    "spectra.static_integral_s": "s",
    "spectra.static_integral_useful_ratio": "ratio",
    "spectra.sl_setup_s": "s",
    "spectra.sl_eval_calls": "count",
    "spectra.sl_eval_ms_p50": "ms",
    "spectra.sl_sweep_s": "s",
    "spectra.sl_refine_s": "s",
    "spectra.self_s": "s",
    "specfun.bessel_zero_calls": "count",
    "specfun.bessel_zero_s": "s",
    "specfun.sph_harm_grad_calls": "count",
    "specfun.sph_harm_grad_s": "s",
    "specfun.self_s": "s",
    "surface.build_s": "s",
    "surface.radius_calls": "count",
    "surface.self_s": "s",
    "verify.necessity_s": "s",
    "verify.lemma1_s": "s",
    "verify.green_s": "s",
    "verify.decomposition_s": "s",
    "verify.self_s": "s",
    "cli.self_s": "s",
    "cli.artifact_variants": "count",
    "trace.accounted_frac": "ratio",
    "trace.spans": "count",
    "trace_overhead_frac": "ratio",
}

BUILDERS = ("surface.make_sphere", "surface.make_star_surface", "surface.make_direction_grid")


class SpanTree:
    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)

    def named(self, *names):
        return [s for s in self.spans if s["name"] in names]

    def has_ancestor(self, span: dict, names) -> bool:
        parent = span["parent"]
        while parent is not None:
            p = self.by_id[parent]
            if p["name"] in names:
                return True
            parent = p["parent"]
        return False

    def outer_time(self, *names) -> float:
        """Summed duration of the named spans that have no named ancestor."""
        return sum(_dur(s) for s in self.named(*names) if not self.has_ancestor(s, names))

    def self_time(self, span: dict) -> float:
        """Duration minus the part of it that child spans cover."""
        covered, reach = 0.0, span["start"]
        for c in sorted(self.children[span["id"]], key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        return _dur(span) - covered

    def shares(self) -> dict:
        """Wall time per layer, each instant split among the working spans."""
        events = sorted(
            [(s["start"], 1, s["id"]) for s in self.spans] + [(s["end"], 0, s["id"]) for s in self.spans]
        )
        open_children = defaultdict(int)
        working = defaultdict(int)  # layer -> number of open spans with no open child
        n_working, last = 0, None
        out = defaultdict(float)
        for t, is_start, sid in events:
            if last is not None and n_working:
                for layer, n in working.items():
                    out[layer] += (t - last) * n / n_working
            last = t
            span = self.by_id[sid]
            layer = _layer(span)
            parent = self.by_id.get(span["parent"])
            if is_start:
                working[layer] += 1
                n_working += 1
                if parent is not None:
                    if open_children[parent["id"]] == 0:
                        working[_layer(parent)] -= 1
                        n_working -= 1
                    open_children[parent["id"]] += 1
            else:
                working[layer] -= 1
                n_working -= 1
                if parent is not None:
                    open_children[parent["id"]] -= 1
                    if open_children[parent["id"]] == 0:
                        working[_layer(parent)] += 1
                        n_working += 1
        return {layer: out.get(layer, 0.0) for layer in LAYERS}


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _layer(span: dict) -> str:
    return span["name"].split(".", 1)[0]


def _p50_ms(spans) -> float:
    return 1e3 * statistics.median(_dur(s) for s in spans) if spans else 0.0


def layer_metrics(spans: list[dict], traced_tts: float) -> dict:
    """Every metric in METRICS that the spans alone determine."""
    t = SpanTree(spans)
    m = {}

    indicator = t.named("sweep.completeness_indicator")
    in_sweep = [s for s in indicator if t.has_ancestor(s, ("sweep.sweep_k",))]
    in_refine = [s for s in indicator if t.has_ancestor(s, ("sweep.refine_dip",))]
    factorizations = t.named("sweep.boundary_subspace_singular_values")
    refines = t.named("sweep.refine_dip")
    sweep_wall = t.outer_time("sweep.sweep_k")
    factorize_s = sum(t.self_time(s) for s in factorizations)
    m["sweep.sweep_k_s"] = sweep_wall
    m["sweep.refine_s"] = t.outer_time("sweep.refine_dip")
    m["sweep.multiplicity_s"] = t.outer_time("sweep.estimate_multiplicity")
    m["sweep.indicator_calls.sweep"] = len(in_sweep)
    m["sweep.indicator_calls.refine"] = len(in_refine)
    m["sweep.indicator_calls.multiplicity"] = sum(
        t.has_ancestor(s, ("sweep.estimate_multiplicity",)) for s in factorizations
    )
    m["sweep.evals_per_dip"] = len(in_refine) / len(refines) if refines else 0.0
    m["sweep.interior_seeds"] = len(t.named("sweep.seed_interior_points"))
    m["sweep.indicator_ms_pool_p50"] = _p50_ms([s for s in indicator if s["thread"] != "main"])
    m["sweep.indicator_ms_serial_p50"] = _p50_ms([s for s in indicator if s["thread"] == "main"])
    m["sweep.concurrency"] = sum(_dur(s) for s in in_sweep) / sweep_wall if sweep_wall else 0.0
    m["sweep.factorize_s"] = factorize_s
    flops = sum(qr_flops(s["info"]["rows"], s["info"]["cols"]) for s in factorizations)
    m["sweep.factorize_gflops_computed"] = flops / factorize_s / 1e9 if factorize_s else 0.0

    assembly = t.named("herglotz.assemble_trace_matrix")
    assemble_s = sum(_dur(s) for s in assembly)
    moved = sum(assembly_bytes(s["info"]["rows"], s["info"]["cols"]) for s in assembly)
    m["herglotz.assemble_calls"] = len(assembly)
    m["herglotz.assemble_s"] = assemble_s
    m["herglotz.assemble_gbps_computed"] = moved / assemble_s / 1e9 if assemble_s else 0.0
    m["herglotz.eval_calls"] = len(t.named("herglotz.herglotz_eval"))
    m["herglotz.eval_s"] = t.outer_time("herglotz.herglotz_eval")

    static = t.named("spectra.static_row_integral")
    sl_evals = t.named("spectra.sl_indicator", "spectra.sl_singular_values")
    setup_in_sweep = sum(
        _dur(s) for s in t.named("spectra.make_single_layer_indicator")
        if t.has_ancestor(s, ("spectra.single_layer_eig_sweep",))
    )
    m["spectra.static_integral_calls"] = len(static)
    m["spectra.static_integral_s"] = sum(_dur(s) for s in static)
    m["spectra.static_integral_useful_ratio"] = (
        len({s["info"]["surface"] for s in static}) / len(static) if static else 1.0
    )
    m["spectra.sl_setup_s"] = t.outer_time("spectra.make_single_layer_indicator")
    m["spectra.sl_eval_calls"] = len(sl_evals)
    m["spectra.sl_eval_ms_p50"] = _p50_ms(sl_evals)
    m["spectra.sl_sweep_s"] = t.outer_time("spectra.single_layer_eig_sweep") - setup_in_sweep
    m["spectra.sl_refine_s"] = sum(
        _dur(s) for s in t.named("sweep.golden_section_minimize")
        if not t.has_ancestor(s, ("sweep.refine_dip",))
    )

    m["specfun.bessel_zero_calls"] = len(t.named("specfun.bessel_zero"))
    m["specfun.bessel_zero_s"] = t.outer_time("specfun.bessel_zero")
    m["specfun.sph_harm_grad_calls"] = len(t.named("specfun.sph_harm_with_grad"))
    m["specfun.sph_harm_grad_s"] = sum(_dur(s) for s in t.named("specfun.sph_harm_with_grad"))

    m["surface.build_s"] = t.outer_time(*BUILDERS)
    m["surface.radius_calls"] = len(t.named("surface.surface_radius"))

    m["verify.necessity_s"] = t.outer_time("verify.check_necessity")
    m["verify.lemma1_s"] = t.outer_time("verify.check_lemma1_orthogonality")
    m["verify.green_s"] = t.outer_time("verify.check_green_reduction")
    m["verify.decomposition_s"] = t.outer_time("verify.check_decomposition")

    shares = t.shares()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = shares[layer]
    m["trace.accounted_frac"] = sum(shares.values()) / traced_tts
    m["trace.spans"] = len(spans)
    return m
