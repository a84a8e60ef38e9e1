"""The public API, pinned so that any change to it shows up in review."""

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
