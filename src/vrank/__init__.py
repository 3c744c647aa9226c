"""Partition bijections, the V-tuple rank statistic, and executable proofs of
four mod-3 congruences, with a power-series counting oracle and a CLI."""

from .partition import (
    Partition,
    FrobeniusSymbol,
    conjugate,
    union,
    scale2,
    count_residue3,
    split_by_residue3,
    to_frobenius,
    from_frobenius,
)
from .families import (
    Family,
    VTuple,
    Overpartition,
    DesignatedPartition,
    TwoColorPartition,
    OddStaircase,
    enumerate_family,
    count_family,
    is_member,
    format_element,
    parse_element,
    family_by_name,
)
from .bijections import (
    phi,
    phi_inv,
    delta,
    psi,
    lambda_pd,
    lambda_pd_inv,
    lambda_a,
    lambda_a_inv,
    wright,
    wright_inv,
    lambda_pod,
    lambda_pod_inv,
)
from .orbits import v_rank, classify_case, o_hat, rotate_o, build_orbits
from .series import PowerSeries, build_series, family_series, generating_function, scan_congruence

__version__ = "0.1.0"
