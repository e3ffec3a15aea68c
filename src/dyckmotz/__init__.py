"""Exact enumeration toolkit for Motzkin paths, Dyck paths, and the
height-constrained Dyck family, with a structure bijection between the
constrained family and Motzkin paths, pattern statistics, and truncated
generating function machinery. Each submodule loads when one of its names
is first read here (PEP 562): paths, enumeration, bijection, patterns,
family and golden load without series, genfun, oeis, verifier or cli."""
from importlib import import_module as _import_module

# every public name, by the submodule that defines it
_NAMES = {
    "paths": "DyckPath LatticePath MotzkinPath NotADyckPathError NotAMotzkinPathError "
             "PathSyntaxError height",
    "enumeration": "catalan_number count_constrained_by_height enumerate_constrained "
                   "enumerate_dyck enumerate_motzkin motzkin_number",
    "bijection": "NotConstrainedError is_constrained phi phi_inverse",
    "patterns": "DIRAC EmptyPatternError PATTERNS PathProfile PatternExpr PatternSyntaxError "
                "StatisticExpr TransportRule count_occurrences evaluate_statistic "
                "parse_pattern parse_statistic transport_rule transport_rules",
    "family": "check_bijectivity check_transport",
    "series": "InexactDivisionError NoConvergenceError NonSquareConstantTermError "
              "NonUnitDivisorError TruncatedSeries",
    "genfun": "DEFAULT_TRUNCATION FIXED_POINT_PATTERNS RouteCheckError distribution_brute_force "
              "distribution_gf_closed distribution_gf_fixed_point du_from_ud popularity_gf",
    "oeis": "CacheMissError MalformedBFileError NetworkUnavailableError bfile_url oeis_fetch "
            "parse_bfile",
    "golden": "GoldenData GoldenTable PopularityCell SequenceRef embedded_prefixes "
              "load_golden_tables",
    "verifier": "compare_sequence render_text run_full_verification",
    "cli": "",
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _NAMES:  # a submodule
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # so the next read does not come here
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
