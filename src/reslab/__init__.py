"""Graph residue lab: Havel-Hakimi residue, the Maxine heuristic, exact
independence tools, a forbidden-structure catalog, and an exhaustive
verification harness over small graphs and graph6 corpora."""

from types import ModuleType as _ModuleType

from ._version import __version__
from .degseq import (
    HHTrace,
    NonGraphicError,
    hh_realization,
    hh_step,
    hh_trace,
    is_graphic,
    parse_degree_sequence,
    residue,
    residue_seq,
)
from .graphs import (
    Graph,
    Graph6Error,
    canonical_form,
    complement,
    degree_sequence,
    delete_vertex,
    enumerate_labeled,
    from_graph6,
    induced,
    isomorphism_class_count,
    isomorphism_classes,
    to_graph6,
)
from .heuristics import (
    MaxineOutcome,
    MaxineSummary,
    NoHHVertexError,
    hh_property_vertices,
    max_degree_vertices,
    maxine_all,
    maxine_hh,
    maxine_hh_sizes,
    maxine_run,
)
from .independence import (
    MISReport,
    all_mis,
    alpha,
    mdi_vertices,
    prune_outside,
    reduce_to_unique_mis,
    reduction_pipeline,
)
from .patterns import (
    Embedding,
    FMember,
    complement_cycle,
    complement_path,
    complete,
    cycle,
    empty,
    f_catalog,
    find_induced,
    gen_f_member,
    has_p5_star,
    path,
)
from .verify import (
    CheckId,
    CorpusSource,
    EnumerationSource,
    Verdict,
    VerifyReport,
    check_one,
    hunt,
    run_suite,
)

# the submodules are bound here by their own import; they are not exports
__all__ = [
    name
    for name, obj in sorted(globals().items())
    if not name.startswith("_") and not isinstance(obj, _ModuleType)
]
