#!/usr/bin/env python3
"""Traced replay: per-layer busy time and counts for one workload.

    python3 scanbench/replay.py --workload corpus8_bundle --seed 1

Times calls from outside, through reslab's public functions only, so a
renamed private helper cannot break it.  In one fresh process it

1. builds the catalog (`patterns.f_catalog`) while it is still cold;
2. runs the workload's untraced `run_suite` scan once, for `verify.self_s`;
3. produces the graphs: `enumerate_labeled(n)` alone, or `from_graph6`
   on every corpus record;
4. calls each fact once per graph, in the order a bundled scan reaches
   it: residue, alpha, maxine_all, maxine_hh, hh_realization (once per
   distinct degree sequence, as the scan caches it), find_induced for C4
   and P5, mdi_vertices; on hosts with an MDI vertex reduction_pipeline
   and all_mis of its output for each such vertex, then has_p5_star, and
   raw catalog members when alpha >= 3 and no P5* is present; on P5-free
   hosts the filtered catalog members until one is found;
5. runs `check_one` over the graphs once per check of the workload.

`verify.self_s` is the scan's wall time minus the sum of the layer busy
times of step 3 and 4: what the fact cache, dispatch and bookkeeping add
(it is negative where the replay does work the scan skips).  Metrics of
layers a workload does not reach read 0.  The metrics go to a JSON file
under scanbench/out/ and are printed by name with their units.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import reference
import workloads

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = [
    ("graphs.enumerate_labeled.busy_s", "s", "lower"),
    ("graphs.from_graph6.busy_s", "s", "lower"),
    ("graphs.from_graph6.calls", "count", "lower"),
    ("degseq.residue.busy_s", "s", "lower"),
    ("degseq.residue.calls", "count", "lower"),
    ("degseq.residue.distinct_sequences", "count", "lower"),
    ("degseq.hh_realization.busy_s", "s", "lower"),
    ("heuristics.maxine_all.busy_s", "s", "lower"),
    ("heuristics.maxine_all.calls", "count", "lower"),
    ("heuristics.maxine_all.slowest_ms", "ms", "lower"),
    ("heuristics.maxine_hh.busy_s", "s", "lower"),
    ("heuristics.maxine_hh.calls", "count", "lower"),
    ("heuristics.maxine_hh.completed", "count", "higher"),
    ("independence.alpha.busy_s", "s", "lower"),
    ("independence.alpha.calls", "count", "lower"),
    ("independence.alpha.slowest_ms", "ms", "lower"),
    ("independence.mdi_vertices.busy_s", "s", "lower"),
    ("independence.mdi_vertices.calls", "count", "lower"),
    ("independence.mdi_vertices.hosts", "count", "higher"),
    ("independence.reduction_pipeline.busy_s", "s", "lower"),
    ("independence.reduction_pipeline.calls", "count", "lower"),
    ("independence.all_mis.busy_s", "s", "lower"),
    ("independence.all_mis.calls", "count", "lower"),
    ("patterns.find_induced.busy_s", "s", "lower"),
    ("patterns.find_induced.calls", "count", "lower"),
    ("patterns.find_induced.hits", "count", "higher"),
    ("patterns.find_induced.wasted", "count", "lower"),
    ("patterns.find_induced.useful_ratio", "ratio", "higher"),
    ("patterns.has_p5_star.busy_s", "s", "lower"),
    ("patterns.has_p5_star.calls", "count", "lower"),
    ("patterns.f_catalog.busy_s", "s", "lower"),
] + [(f"verify.check.{c}.busy_s", "s", "lower") for c in workloads.BUNDLE] + [
    ("verify.self_s", "s", "lower"),
]

# layers whose busy time verify.self_s subtracts from the scan's wall time
FACT_LAYERS = (
    "graphs.enumerate_labeled",
    "graphs.from_graph6",
    "degseq.residue",
    "degseq.hh_realization",
    "heuristics.maxine_all",
    "heuristics.maxine_hh",
    "independence.alpha",
    "independence.mdi_vertices",
    "independence.reduction_pipeline",
    "independence.all_mis",
    "patterns.find_induced",
    "patterns.has_p5_star",
)


class Layers:
    """Busy time, call counts and slowest call per layer, plus counters."""

    def __init__(self):
        self.m = {name: 0 for name, _, _ in LAYER_METRICS}

    def call(self, layer: str, fn, *args):
        t = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dt = time.perf_counter() - t
            self.m[layer + ".busy_s"] += dt
            if layer + ".calls" in self.m:
                self.m[layer + ".calls"] += 1
            slowest = layer + ".slowest_ms"
            if slowest in self.m and dt * 1000 > self.m[slowest]:
                self.m[slowest] = dt * 1000

    def count(self, name: str, k: int = 1):
        self.m[name] += k


def replay(w: workloads.Workload, inputs: workloads.Inputs) -> tuple[dict, list[dict], list[str]]:
    """(per-layer metrics, the untraced scan's reports, errors found)."""
    reslab = workloads.import_reslab()
    L = Layers()
    errors = []
    catalog_filtered: list = []
    catalog_raw: list = []
    if w.catalog_n:
        catalog_filtered = L.call("patterns.f_catalog", reslab.f_catalog, w.catalog_n, True)
        catalog_raw = L.call("patterns.f_catalog", reslab.f_catalog, w.catalog_n, False)
        for m in catalog_raw:
            # every member must contain an induced C4, or a C4-free host's
            # catalog searches would not be known in advance to fail
            if not reference.has_induced_c4(m.graph.adj):
                errors.append(f"catalog member {m.label} has no induced C4")

    t = time.perf_counter()
    reports = reslab.run_suite(workloads.make_source(reslab, inputs.source), w.checks, shards=1)
    scan_s = time.perf_counter() - t

    if w.enum_n is not None:
        graphs = L.call("graphs.enumerate_labeled", lambda: list(reslab.enumerate_labeled(w.enum_n)))
    else:
        graphs = [L.call("graphs.from_graph6", reslab.from_graph6, r) for r in inputs.records]

    checks = set(w.checks)
    bundle = "thm_bm_c4p5" in checks
    c4, p5 = reslab.cycle(4), reslab.path(5)
    sequences = set()
    for g in graphs:
        if checks & {"thm1_residue_le_alpha", "thm2_sandwich", "hh_deletion_gives_residue"}:
            L.call("degseq.residue", reslab.residue, g)
        a = L.call("independence.alpha", reslab.alpha, g)
        if "thm2_sandwich" in checks:
            L.call("heuristics.maxine_all", reslab.maxine_all, g)
        if "hh_deletion_gives_residue" in checks:
            try:
                L.call("heuristics.maxine_hh", reslab.maxine_hh, g)
                L.count("heuristics.maxine_hh.completed")
            except reslab.NoHHVertexError:
                pass
        seq = reslab.degree_sequence(g)
        if "realization_has_hh_vertex" in checks and seq not in sequences:
            L.call("degseq.hh_realization", reslab.hh_realization, seq)
        sequences.add(seq)
        if not bundle:
            continue
        has_c4 = find(L, reslab, g, c4)
        has_p5 = find(L, reslab, g, p5)
        mdi = L.call("independence.mdi_vertices", reslab.mdi_vertices, g)
        if mdi:
            L.count("independence.mdi_vertices.hosts")
            for v in sorted(mdi):
                g2, _ = L.call("independence.reduction_pipeline", reslab.reduction_pipeline, g, v)
                L.call("independence.all_mis", reslab.all_mis, g2)
            p5_star = L.call("patterns.has_p5_star", reslab.has_p5_star, g)
            if a >= 3 and not p5_star and g.edge_count:
                any(catalog_find(L, reslab, g, m, has_c4) for m in catalog_raw)
        if not has_p5:
            any(catalog_find(L, reslab, g, m, has_c4) for m in catalog_filtered)
    L.m["degseq.residue.distinct_sequences"] = len(sequences)

    for c in w.checks:
        t = time.perf_counter()
        for g in graphs:
            reslab.check_one(g, c)
        L.m[f"verify.check.{c}.busy_s"] = time.perf_counter() - t

    searches = L.m["patterns.find_induced.calls"]
    if searches:
        L.m["patterns.find_induced.useful_ratio"] = 1 - L.m["patterns.find_induced.wasted"] / searches
    L.m["verify.self_s"] = scan_s - sum(L.m[layer + ".busy_s"] for layer in FACT_LAYERS)
    return L.m, [r.to_dict() for r in reports], errors


def find(L: Layers, reslab, g, pattern) -> bool:
    hit = L.call("patterns.find_induced", reslab.find_induced, g, pattern) is not None
    L.count("patterns.find_induced.hits", hit)
    return hit


def catalog_find(L: Layers, reslab, g, member, host_has_c4: bool) -> bool:
    if not host_has_c4:
        L.count("patterns.find_induced.wasted")
    return find(L, reslab, g, member.graph)


def write_and_print(metrics: dict, workload: str, seed: int) -> str:
    workloads.OUT.mkdir(exist_ok=True)
    path = workloads.OUT / f"trace_{workload}_seed{seed}.json"
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    doc = {name: {"value": metrics[name], "unit": units[name]} for name, _, _ in LAYER_METRICS}
    path.write_text(json.dumps({"workload": workload, "seed": seed, "metrics": doc}, indent=1) + "\n")
    for name, unit, _ in LAYER_METRICS:
        print(f"{name:<52} {metrics[name]:>14.6g} {unit}")
    return str(path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Traced per-layer replay of one scanbench workload.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    inputs = workloads.prepare(w, args.seed)
    metrics, reports, errors = replay(w, inputs)
    errors += workloads.report_errors(w, inputs, reports)
    path = write_and_print(metrics, w.name, args.seed)
    print(f"wrote {path}", file=sys.stderr)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
