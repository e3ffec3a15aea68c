"""The seven record classes: their constructors, defaults, equality,
hash, repr and immutability, and the import that builds them."""
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
