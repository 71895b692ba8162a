"""Explicit sufficient conditions and input constructions for K/2 degrees
of freedom in constant single-antenna interference channels."""

__version__ = "0.1.0"

from .algebra import AlgebraElement, enumerate_monomials, monomial_count
from .channel import (
    ChannelMatrix,
    fully_connected,
    generic_channel,
    load_channel,
    load_channel_file,
    off_diagonal,
    rational_channel,
    integer_offdiag_channel,
    store_channel,
)
from .condition import (
    ConditionReport,
    DependenceCertificate,
    check_all,
    monomial_values,
)
from .dimest import compare_with_formula, estimate_dimension, quantized_entropy
from .dofbound import (
    DofReport,
    InputConstruction,
    build_w_n,
    containment_check,
    dof_lower_bound,
    fig1_demo,
    ratio_limit,
    rational_example,
    separability_check,
    sumset_distribution,
    sweep,
)
from .ifs import (
    IFSSpec,
    exact_overlap_search,
    fixed_point_discrepancy,
    hochman_dimension,
    sample,
    separation_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
