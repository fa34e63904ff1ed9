"""Finite model of the category of database instances and view-based morphisms.

Objects are finite sets of relations over a finite constant domain.  The
power-view operator closes an instance under select, project, join and
union up to a configured arity cap; morphisms transmit views and are
identified by their information flux.  On top of that sit matching and
merging (the monoidal tensor and the lattice join), hom-objects, a metric,
a subobject classifier and exhaustive property suites validating the whole
structure over small enumerations.
"""

from .core import (
    BOTTOM,
    Constant,
    Instance,
    Relation,
    UniverseConfig,
    ZERO,
    instance,
    instance_union,
    make_relation,
    sorted_relations,
    subset_instances,
    universe_relations,
    with_default_labels,
)
from .errors import (
    ArityError,
    ArityMismatch,
    DomainMismatch,
    EnumerationTooLarge,
    FluxOutOfRange,
    NotAPullback,
    NotClosedDomain,
    NotMonic,
    NotParallel,
    QuerySyntaxError,
    ResultNotInTarget,
    UniverseTooLarge,
    UnknownConstant,
    UnknownRelation,
    UnknownSuite,
    ViewfluxError,
)
from .queries import (
    Base,
    Bot,
    ColEqCol,
    ColEqConst,
    Join,
    Project,
    QueryTerm,
    Select,
    Slot,
    UnionTerm,
    evaluate,
    flatten_term,
    format_query,
    parse_query,
    query_equiv,
    static_arity,
)
from .closure import (
    ClosedInstance,
    closed_subsets,
    generating_queries,
    is_closed,
    isomorphic,
    po_leq,
    power_view,
    total_object,
    zero_object,
)
from .morphisms import (
    Morphism,
    ViewMap,
    ViewTree,
    arrow_po_leq,
    atomic_morphism,
    compose,
    empty_arrow,
    equiv,
    identity,
    invert,
    is_epi,
    is_iso,
    is_mono,
    lift_arrow,
    semantic_arrow,
    semantic_arrows,
    semantic_homset,
    totalize,
    view_map,
)
from .catops import (
    arrow_coproduct,
    composition_arrow,
    copair,
    coproduct,
    eval_arrow,
    fold_arrow,
    hom_object,
    identity_element_arrow,
    lattice_inf,
    lattice_sup,
    matching,
    merge_arrow,
    merging,
    monoid_structure,
    omega_chain,
    principal_morphism,
    ret_category_probe,
    retraction_check,
    tensor_arrow,
    transpose,
)
from .topos import (
    ClassifierReport,
    MetricReport,
    NegativeReport,
    PullbackSquare,
    classifier,
    coproduct_pullback_check,
    distance,
    epi_mono_factorize,
    equalizer_check,
    is_pullback_square,
    metric_suite,
    negative_probes,
    pullback,
    true_arrow,
)
from .formats import (
    dump_instance,
    load_instance,
    load_morphism,
    parse_instance,
    render_instance,
    render_morphism,
)
from .suites import (
    LawResult,
    SuiteReport,
    SUITE_NAMES,
    render_report,
    run_suite,
)

__version__ = "0.1.0"
