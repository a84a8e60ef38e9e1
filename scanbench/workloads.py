"""The benchmark's workloads, their inputs and the checks on their outputs.

Every workload is one `reslab.verify.run_suite(source, checks, shards=1)`
call.  Runs stay in one process because the machine the figures come
from has 2 cores: worker processes would measure the scheduler and the
other tenants rather than reslab.

This module imports nothing from reslab; functions that need it take
the imported package as an argument.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

import gen_sparse
import reference

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
CORPUS8 = "tests/data/nonisomorphic8.g6"

SANDWICH = ("thm2_sandwich",)
# every check except f_members_are_mdi, which holds only on catalog members
BUNDLE = (
    "thm1_residue_le_alpha",
    "thm2_sandwich",
    "hh_deletion_gives_residue",
    "realization_has_hh_vertex",
    "thm_bm_c4p5",
    "lemma_reductions_preserve_mdi",
    "alpha_le_2_edgeless",
    "q_cliques",
    "thm_structure_alpha3",
    "thm_structure_alpha_gt3",
    "corollary_f_p5",
)
SPARSE = (
    "thm1_residue_le_alpha",
    "thm2_sandwich",
    "hh_deletion_gives_residue",
    "realization_has_hh_vertex",
)


@dataclass(frozen=True)
class Workload:
    name: str
    checks: tuple[str, ...]
    enum_n: int | None = None  # labeled enumeration on this many vertices
    corpus: str | None = None  # fixed graph6 corpus, relative to the root
    generated: bool = False  # seeded corpus from gen_sparse
    catalog_n: int | None = None  # set-up builds f_catalog(catalog_n)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("enum6_sandwich", SANDWICH, enum_n=6),
        Workload("enum6_bundle", BUNDLE, enum_n=6, catalog_n=6),
        Workload("corpus8_bundle", BUNDLE, corpus=CORPUS8, catalog_n=8),
        Workload("large_sparse_sandwich", SPARSE, generated=True),
    )
}


@dataclass(frozen=True)
class Inputs:
    """What one run scans: `source` is ("enum", n) or ("corpus", path)."""

    source: tuple
    scanned: int  # graphs a scan must report
    records: tuple[str, ...] = ()  # graph6 records of a corpus
    families: tuple[tuple[str, tuple[int, ...]], ...] = ()  # generated only


def prepare(w: Workload, seed: int) -> Inputs:
    """Write the run's input file, if it has one, and describe it."""
    if w.enum_n is not None:
        return Inputs(("enum", w.enum_n), 1 << (w.enum_n * (w.enum_n - 1) // 2))
    if w.generated:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"sparse_seed{seed}.g6"
        made = gen_sparse.write_corpus(seed, str(path))
        records = tuple(r for _, _, r in made)
        families = tuple((f, p) for f, p, _ in made)
        return Inputs(("corpus", str(path)), len(records), records, families)
    path = ROOT / w.corpus
    if not path.is_file():
        raise FileNotFoundError(f"corpus {w.corpus} not found under {ROOT}")
    records = tuple(t for t in path.read_text("ascii").split() if t)
    return Inputs(("corpus", str(path)), len(records), records)


def require_sources() -> Path:
    """The checkout's src/ directory, which must hold reslab."""
    src = ROOT / "src"
    if not (src / "reslab" / "__init__.py").is_file():
        raise FileNotFoundError(f"reslab sources not found under {src}")
    return src


def import_reslab():
    """reslab from this checkout's src/, not from an installed copy."""
    sys.path.insert(0, str(require_sources()))
    import reslab

    return reslab


def make_source(reslab, source: tuple):
    kind, arg = source
    if kind == "enum":
        return reslab.EnumerationSource(arg)
    return reslab.CorpusSource(arg)


def report_errors(w: Workload, inputs: Inputs, reports: list[dict]) -> list[str]:
    """What is wrong with one scan's reports; empty when they are right."""
    errors = []
    got = [r["check"] for r in reports]
    if got != list(w.checks):
        return [f"reports for {got}, expected {list(w.checks)}"]
    for r in reports:
        c = r["check"]
        if r["scanned"] != inputs.scanned:
            errors.append(f"{c}: scanned {r['scanned']}, expected {inputs.scanned}")
        if r["skipped_records"]:
            errors.append(f"{c}: {r['skipped_records']} skipped records")
        if r["counterexamples"]:
            errors.append(f"{c}: counterexamples {r['counterexamples'][:3]}")
        if not 0 <= r["applicable"] <= r["scanned"]:
            errors.append(f"{c}: applicable {r['applicable']} of {r['scanned']}")
    if w.generated:
        # residue, alpha and a degree-sequence realization exist for every record
        for r in reports:
            if r["check"] != "hh_deletion_gives_residue" and r["applicable"] != inputs.scanned:
                errors.append(f"{r['check']}: applicable {r['applicable']} of {inputs.scanned}")
    return errors


def sample_errors(reslab, w: Workload, inputs: Inputs, seed: int) -> list[str]:
    """Compare reslab's alpha, residue and maxine_all with the reference
    computations on a seeded sample of the workload's graphs."""
    rng = random.Random(seed)
    errors = []
    if w.enum_n is not None:
        n = w.enum_n
        masks = rng.sample(range(inputs.scanned), 200)
        cases = [(f"mask {m}", reslab.Graph(n, _edges(reference.mask_adjacency(n, m)))) for m in masks]
    else:
        picks = range(len(inputs.records)) if w.generated else rng.sample(range(len(inputs.records)), 100)
        cases = []
        for i in picks:
            record = inputs.records[i]
            g = reslab.from_graph6(record)
            if g.adj != reference.decode_graph6(record):
                errors.append(f"{record}: from_graph6 adjacency {g.adj}")
            cases.append((record, g))
    small = [i for i, (_, g) in enumerate(cases) if g.n <= 20]
    maxine_picks = set(rng.sample(small, min(8, len(small)))) if w.generated else set(range(len(cases)))
    for i, (label, g) in enumerate(cases):
        adj = g.adj
        a_ref = reference.alpha_subsets(adj) if g.n <= 8 else reference.alpha_branching(adj)
        r_ref = reference.hh_residue(reference.degrees(adj))
        if reslab.alpha(g) != a_ref:
            errors.append(f"{label}: alpha {reslab.alpha(g)}, reference {a_ref}")
        if reslab.residue(g) != r_ref:
            errors.append(f"{label}: residue {reslab.residue(g)}, reference {r_ref}")
        if w.generated:
            family, parts = inputs.families[i]
            if family.startswith("cycle") and a_ref != sum(k // 2 for k in parts):
                errors.append(f"{label}: reference alpha {a_ref} of cycles {parts}")
        if i in maxine_picks:
            sizes = reslab.maxine_all(g).achievable_sizes
            if g.n <= 8:
                ref = reference.maxine_sizes_plain(adj)
                if sizes != ref:
                    errors.append(f"{label}: maxine_all {sorted(sizes)}, reference {sorted(ref)}")
            elif not all(r_ref <= s <= a_ref for s in sizes):
                errors.append(f"{label}: maxine_all {sorted(sizes)} outside [{r_ref}, {a_ref}]")
    return errors


def c4p5_errors(w: Workload, reports: list[dict]) -> list[str]:
    """thm_bm_c4p5 applies to exactly the {C4, P5}-free labeled graphs."""
    if w.enum_n is None or "thm_bm_c4p5" not in w.checks:
        return []
    want = reference.count_c4_p5_free_labeled(w.enum_n)
    got = next(r["applicable"] for r in reports if r["check"] == "thm_bm_c4p5")
    return [] if got == want else [f"thm_bm_c4p5 applicable {got}, reference {want}"]


def _edges(adj) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(adj)) for v in range(u + 1, len(adj)) if adj[u] >> v & 1]
