"""Exact enumeration toolkit for Motzkin paths, Dyck paths, and the
height-constrained Dyck family, with a structure bijection between the
constrained family and Motzkin paths, pattern statistics, and truncated
generating function machinery."""
from types import ModuleType as _ModuleType

from .paths import (DyckPath, LatticePath, MotzkinPath, NotADyckPathError,
                    NotAMotzkinPathError, PathSyntaxError, height)
from .enumeration import (catalan_number, count_constrained_by_height,
                          enumerate_constrained, enumerate_dyck, enumerate_motzkin,
                          motzkin_number)
from .bijection import (NotConstrainedError, check_bijectivity, is_constrained, phi,
                        phi_inverse)
from .patterns import (DIRAC, EmptyPatternError, PathProfile, PatternExpr,
                       PatternSyntaxError, StatisticExpr, TransportRule,
                       check_transport, count_occurrences, evaluate_statistic,
                       parse_pattern, parse_statistic, transport_rule,
                       transport_rules)
from .series import (InexactDivisionError, NoConvergenceError,
                     NonSquareConstantTermError, NonUnitDivisorError, TruncatedSeries)
from .genfun import (DEFAULT_TRUNCATION, FIXED_POINT_PATTERNS, RouteCheckError,
                     PATTERNS, distribution_brute_force, distribution_gf_closed,
                     distribution_gf_fixed_point, du_from_ud, popularity_gf)
from .oeis import (CacheMissError, MalformedBFileError, NetworkUnavailableError,
                   bfile_url, oeis_fetch, parse_bfile)
from .verifier import (GoldenData, GoldenTable, PopularityCell, SequenceRef,
                       compare_sequence, embedded_prefixes, load_golden_tables,
                       render_text, run_full_verification)

# every name imported above, in one list
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
