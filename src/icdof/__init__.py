"""Explicit sufficient conditions and input constructions for K/2 degrees
of freedom in constant single-antenna interference channels.

The exact algebra, the channel files and condition (*) are imported with
the package; they are pure Python.  The names of ``dimest``, ``dofbound``
and ``ifs``, which import numpy, are served on first use (PEP 562), so
``import icdof`` loads no numpy.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

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

#: Name -> the submodule that defines it, imported when the name is first read.
_LAZY = {
    "dimest": "dimest",
    "compare_with_formula": "dimest",
    "estimate_dimension": "dimest",
    "quantized_entropy": "dimest",
    "dofbound": "dofbound",
    "DofReport": "dofbound",
    "InputConstruction": "dofbound",
    "build_w_n": "dofbound",
    "containment_check": "dofbound",
    "dof_lower_bound": "dofbound",
    "fig1_demo": "dofbound",
    "rational_example": "dofbound",
    "separability_check": "dofbound",
    "sumset_distribution": "dofbound",
    "sweep": "dofbound",
    "ifs": "ifs",
    "IFSSpec": "ifs",
    "exact_overlap_search": "ifs",
    "fixed_point_discrepancy": "ifs",
    "hochman_dimension": "ifs",
    "sample": "ifs",
    "separation_check": "ifs",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


__all__ = sorted({name for name in dir() if not name.startswith("_")} | set(_LAZY))
