"""Exact invariants and isomorphism decisions for products of Hilbert schemes
of points on a surface, plus desk-scale verification scans."""

from ._version import __version__
from .decision import Outcome, Verdict, aut_shape, decide, kummer_reinterpretation
from .errors import CatalogError, DataError, DimensionMismatchError, UsageError
from .invariants import (
    HodgeDiamond,
    PoincarePolynomial,
    betti_closed,
    euler_char_tuple,
    hodge_p0,
    hodge_polynomial_full,
    poincare_polynomial_tuple,
    poincare_series,
    surface_diamond,
)
from .partitions import (
    Majorization,
    Partition,
    colored_count,
    colored_count_tuple,
    enumerate_partitions,
    majorizes,
)
from .scanner import (
    ScanReport,
    Violation,
    scan_conjecture,
    verify_lemma_inequalities,
    verify_majorization,
)
from .series import Exponent, TruncatedSeries
from .surfaces import (
    StructuralClass,
    SurfaceInvariants,
    catalog_lookup,
    load_catalog,
)
