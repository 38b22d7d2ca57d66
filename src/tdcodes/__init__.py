"""Tandem-duplication string systems.

Duplication roots, the linear-time confusability decision for duplications
of length at most three, label fingerprints, code constructions with size
bounds, and an exact clique-based search for optimal code sizes.
"""

from .words import (
    Word,
    ResourceBudgetError,
    parse_word,
    render_word,
    check_word,
    tandem_duplicate,
    remove_duplicates_pass,
    is_irreducible,
    pad_tail,
)
from .roots import (
    root_le_k,
    root_le3,
    root_exact_k,
)
from .confusability import (
    NoRegionError,
    MalformedWordError,
    RegionDescriptor,
    main_and_region,
    extended_prefix,
    cut_prefix,
    count_occurrences,
    confusable,
    Label,
    compute_label,
    labels_confusable,
    confusable_by_labels,
    count_regions,
    DuplicationTrace,
    normalize_trace,
)
from .oracle import (
    enumerate_irreducible,
    irreducible_counts,
    ConeFrontier,
    descendant_cone,
    oracle_confusable,
    enumerate_labels,
    canonical_form,
)
from .codes import (
    Code,
    UnsupportedRootError,
    ONE_REGION_PATTERNS,
    irreducible_code,
    pair_code,
    one_region_words,
    one_region_size,
    one_region_code,
    recursive_size,
    recursive_code,
    validate_code,
    find_confusable_pair,
    assemble_lower_bound,
    assemble_lower_bounds,
)
from .bounds import (
    region_vector_upper_bound,
    region_vector_upper_bound_bruteforce,
    irreducible_region_count,
    le2_upper_bound,
    refined_upper_bound,
)
from .optimal import (
    LabelGraph,
    graph_from_labels,
    max_clique,
    SizeCache,
    labels_by_root,
    optimal_size_for_root,
    optimal_size,
)

__version__ = "0.1.0"
