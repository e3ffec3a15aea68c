"""The seven record classes: their constructors, defaults, equality,
hash, repr and immutability, and the import that builds them, which
loads each submodule on first use."""
import os
import subprocess
import sys

import pytest

from dyckmotz import (GoldenData, GoldenTable, PatternExpr, PopularityCell, SequenceRef,
                      StatisticExpr, TransportRule, load_golden_tables, parse_pattern,
                      parse_statistic, transport_rule)

UD_REPR = ("PatternExpr(atoms=(('U', False), ('D', False)), start_anchor=False, "
           "end_anchor=False, dirac=False, text='UD')")


def test_records_keep_their_fields_defaults_equality_and_immutability():
    ud = parse_pattern("UD")
    assert repr(ud) == UD_REPR and str(ud) == "UD"
    assert ud.counter is not None  # compiled, but out of ==, hash and repr
    plain = PatternExpr((("U", False), ("D", False)), text="UD")
    assert plain.counter is None
    assert plain == ud and not plain != ud and hash(plain) == hash(ud)
    assert PatternExpr(atoms=ud.atoms, text="UD", counter=ud.counter) == ud

    stat = parse_statistic("UD + 1", "dyck")
    assert repr(stat) == f"StatisticExpr(terms=((1, {UD_REPR}), (1, '1')), side='dyck', text='UD + 1')"
    assert str(stat) == "UD + 1" and (stat.const, stat.n_coeff) == (1, 0)
    # built from the same terms, by position or keyword, the computed fields agree
    again = StatisticExpr(terms=stat.terms, side="dyck", text="UD + 1")
    assert again == stat and hash(again) == hash(stat)
    assert (again.const, again.n_coeff, again.form) == (stat.const, stat.n_coeff, stat.form)
    assert StatisticExpr(stat.terms, "dyck") != stat  # text is compared
    assert parse_statistic("2*n - UD", "motzkin").n_coeff == 2

    rule = TransportRule("UD", stat, stat)
    assert rule.min_n == 0 and rule == TransportRule("UD", stat, stat, 0)
    assert transport_rule("DUU").min_n == 1
    cell = PopularityCell("src", ("UD",), 3, 5)
    assert cell.misprint_computed is None
    ref = SequenceRef("A000001", "stated", "pop:UD", 1, (1, 3))
    assert ref.provenance == "table"

    golden = load_golden_tables()
    table = next(iter(golden.tables.values()))
    assert isinstance(table, GoldenTable) and isinstance(golden, GoldenData)
    records = [
        (ud, ("atoms", "start_anchor", "end_anchor", "dirac", "text", "counter")),
        (stat, ("terms", "side", "text", "const", "n_coeff", "form")),
        (rule, ("name", "dyck_side", "motzkin_side", "min_n")),
        (table, ("pattern", "source", "cells")),
        (cell, ("source", "patterns", "n", "printed", "misprint_computed")),
        (ref, ("oeis_id", "status", "target", "offset", "known_terms", "provenance")),
        (golden, ("tables", "sums", "popularity", "seq_refs")),
    ]
    for record, names in records:
        for name in names:
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            assert getattr(record, name) is before, (type(record).__name__, name)


def test_replace_computes_the_computed_fields_again():
    stat = parse_statistic("UD + 1", "dyck")
    moved = stat._replace(terms=stat.terms[:1], text="UD")
    assert (moved.const, moved.form) == (0, stat.form) and moved == parse_statistic("UD", "dyck")
    ud = parse_pattern("UD")
    assert ud._replace(text="UD").counter is None and ud._replace() == ud


def test_importing_the_package_loads_no_dataclasses():
    # a fresh interpreter without site, so only what dyckmotz imports is loaded
    code = ("import sys, dyckmotz\n"
            "dyckmotz.load_golden_tables()\n"
            "assert 'dataclasses' not in sys.modules\n"
            "assert 'importlib.resources' not in sys.modules\n")  # the tables are a plain open
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr


# the 61 public names, pinned: each reads through dyckmotz.__getattr__
PUBLIC_NAMES = sorted("""
    CacheMissError DEFAULT_TRUNCATION DIRAC DyckPath EmptyPatternError FIXED_POINT_PATTERNS
    GoldenData GoldenTable InexactDivisionError LatticePath MalformedBFileError MotzkinPath
    NetworkUnavailableError NoConvergenceError NonSquareConstantTermError NonUnitDivisorError
    NotADyckPathError NotAMotzkinPathError NotConstrainedError PATTERNS PathProfile
    PathSyntaxError PatternExpr PatternSyntaxError PopularityCell RouteCheckError SequenceRef
    StatisticExpr TransportRule TruncatedSeries bfile_url catalan_number check_bijectivity
    check_transport compare_sequence count_constrained_by_height count_occurrences
    distribution_brute_force distribution_gf_closed distribution_gf_fixed_point du_from_ud
    embedded_prefixes enumerate_constrained enumerate_dyck enumerate_motzkin evaluate_statistic
    height is_constrained load_golden_tables motzkin_number oeis_fetch parse_bfile parse_pattern
    parse_statistic phi phi_inverse popularity_gf render_text run_full_verification
    transport_rule transport_rules
""".split())


def test_each_submodule_loads_on_first_use():
    # a fresh interpreter without site, so only what dyckmotz imports is loaded
    code = f"""if True:
        import sys, dyckmotz
        def loaded():
            return {{m for m in sys.modules if m.startswith("dyckmotz.")}}
        second_half = {{"dyckmotz." + m for m in ("series", "genfun", "oeis", "verifier", "cli")}}
        assert not loaded()
        dyckmotz.load_golden_tables()
        assert loaded() == {{"dyckmotz." + m for m in ("paths", "patterns", "golden")}}, loaded()
        assert dyckmotz.bijection is sys.modules["dyckmotz.bijection"]  # a submodule by name
        m = dyckmotz.phi("UUDUDD")
        assert dyckmotz.phi_inverse(m) == "UUDUDD"
        rule = dyckmotz.transport_rules()[0]
        assert dyckmotz.evaluate_statistic(m, rule.motzkin_side, dyckmotz.PathProfile(m)) == 3
        assert loaded() == {{"dyckmotz." + m for m in
                            ("paths", "bijection", "patterns", "golden")}}, loaded()
        dyckmotz.distribution_gf_closed
        assert loaded() & second_half == {{"dyckmotz.genfun", "dyckmotz.series"}}, loaded()
        assert sorted(dyckmotz.__all__) == {PUBLIC_NAMES!r}
        try:
            dyckmotz.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc), exc
        else:
            raise AssertionError("dyckmotz.no_such_name was found")
        assert set(dyckmotz.__all__) <= set(dir(dyckmotz))
        scope = {{}}
        exec("from dyckmotz import *", scope)
        assert set(dyckmotz.__all__) <= set(scope)
        constants = {{"DIRAC": "patterns", "PATTERNS": "patterns", "DEFAULT_TRUNCATION": "genfun",
                     "FIXED_POINT_PATTERNS": "genfun"}}
        for name in dyckmotz.__all__:  # each name is the object its defining module holds
            value = getattr(dyckmotz, name)
            home = "dyckmotz." + constants[name] if name in constants else value.__module__
            assert scope[name] is value is vars(sys.modules[home])[name], name
    """
    # the series routes read no family member, so they load no bijection
    series_only = ("import sys, dyckmotz\n"
                   "dyckmotz.distribution_gf_closed('UD', 4)\n"
                   "assert 'dyckmotz.bijection' not in sys.modules, sorted(sys.modules)\n")
    # the map reads no walker, pattern or family pass; the pass and its checks live in family
    map_only = """if True:
        import sys, dyckmotz
        assert dyckmotz.phi_inverse(dyckmotz.phi("UUDUDD")) == "UUDUDD"
        assert dyckmotz.is_constrained("UDUD")
        loaded = sorted(m for m in sys.modules if m.startswith("dyckmotz."))
        assert loaded == ["dyckmotz.bijection", "dyckmotz.paths"], loaded
        assert dyckmotz.check_bijectivity(4)["ok"] and dyckmotz.check_transport("UD", 4)["ok"]
        assert dyckmotz.family.TransportSweep.__module__ == "dyckmotz.family"
        assert not hasattr(dyckmotz.bijection, "TransportSweep")  # no alias
    """
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    for script in (code, series_only, map_only):
        result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                                text=True, env={**os.environ, "PYTHONPATH": src})
        assert result.returncode == 0, result.stderr
