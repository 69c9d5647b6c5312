"""Exact routing-capacity analysis for undirected multicast networks."""

from .multigraph import (
    Edge,
    Multigraph,
    Rate,
    Reduction,
    TerminalSet,
    degree,
    dump_instance,
    load_instance,
    prune_to_core,
    reduce_core,
    scale_capacities,
    validate,
)
from .connectivity import terminal_cut
from .splitting import (
    SplitEvent,
    SplitHistory,
    eliminate_relays,
    lift_packing,
    split_off,
)
from .packing import (
    SteinerPacking,
    TreeLP,
    enumerate_steiner_trees,
    fractional_capacity_lp,
    half_integer_capacity,
    max_integer_packing,
    solve_tree_lp,
    verify_packing,
)
from .strength import edge_strength, verify_partition
from .bounds import (
    BoundValue,
    appendix_a_delta,
    appendix_b_identity,
    corollary1_gain_bounds,
    corollary2_gain_bound,
    decompose3,
    decompose_general,
    theorem1_lower_bounds,
    theorem3_lower_bound,
    theorem3_tree_floor,
)
from .instances import (
    example2_instance,
    example2_routing_scheme,
    random_instance,
    sample_instances,
)
from .analysis import CapacityReport, analyze_instance

__version__ = "0.1.0"
