"""The public API, pinned so that any change to it shows up in review."""

import tracemalloc
from pathlib import Path
from types import ModuleType

import reslab

PUBLIC_NAMES = [
    "CheckId",
    "CorpusSource",
    "Embedding",
    "EnumerationSource",
    "FMember",
    "Graph",
    "Graph6Error",
    "HHTrace",
    "MISReport",
    "MaxineOutcome",
    "MaxineSummary",
    "NoHHVertexError",
    "NonGraphicError",
    "Verdict",
    "VerifyReport",
    "all_mis",
    "alpha",
    "canonical_form",
    "check_one",
    "complement",
    "complement_cycle",
    "complement_path",
    "complete",
    "cycle",
    "degree_sequence",
    "delete_vertex",
    "empty",
    "enumerate_labeled",
    "f_catalog",
    "find_induced",
    "from_graph6",
    "gen_f_member",
    "has_p5_star",
    "hh_property_vertices",
    "hh_realization",
    "hh_step",
    "hh_trace",
    "hunt",
    "induced",
    "is_graphic",
    "isomorphism_class_count",
    "isomorphism_classes",
    "max_degree_vertices",
    "maxine_all",
    "maxine_hh",
    "maxine_hh_sizes",
    "maxine_run",
    "mdi_vertices",
    "parse_degree_sequence",
    "path",
    "prune_outside",
    "reduce_to_unique_mis",
    "reduction_pipeline",
    "residue",
    "residue_seq",
    "run_suite",
    "to_graph6",
]


def test_public_names_pinned():
    # a name added or removed here is a change to the public API: say so
    # in the README and in CHANGES.md
    assert sorted(reslab.__all__) == PUBLIC_NAMES


def test_star_import_binds_no_module():
    namespace: dict = {}
    exec("from reslab import *", namespace)
    assert not [k for k, v in namespace.items() if isinstance(v, ModuleType)]


# the names callers reach as reslab.verify.<name>, whichever module of the
# package defines them
VERIFY_NAMES = [
    "CHECK_DESCRIPTIONS",
    "CheckId",
    "CorpusSource",
    "EnumerationSource",
    "GraphFacts",
    "Verdict",
    "VerifyReport",
    "check_one",
    "hunt",
    "run_suite",
]


def test_verify_names_pinned():
    from reslab import verify

    assert [name for name in VERIFY_NAMES if not hasattr(verify, name)] == []
    for name in set(VERIFY_NAMES) & set(reslab.__all__):
        assert getattr(verify, name) is getattr(reslab, name), name


def compile_peak(path: Path) -> int:
    """Bytes the compiler holds at its peak while compiling one module."""
    text = path.read_text()
    tracemalloc.start()
    try:
        compile(text, str(path), "exec")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_module_compiles_far_above_graphs():
    # where bytecode is not written, every process compiles the package
    # from source, and the largest module's compile peak sets the memory
    # peak of `import reslab`
    peaks = {p.name: compile_peak(p) for p in Path(reslab.__file__).parent.glob("*.py")}
    limit = 1.25 * peaks["graphs.py"]
    assert {name: peak for name, peak in peaks.items() if peak > limit} == {}
