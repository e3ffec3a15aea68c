"""Checks of the benchmark's own inputs and references against the package.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_inputs.py
"""
import random

import dyckmotz
import inputs

SMALL_N = range(0, 11)


def test_generator_yields_only_family_members():
    for n in SMALL_N:
        family = {str(p) for p in dyckmotz.enumerate_constrained(n)}
        rng = random.Random(n)
        for _ in range(500):
            assert inputs.family_member(n, rng) in family
        assert "UD" * n in family and "U" * n + "D" * n in family


def test_stream_is_seeded_and_keeps_the_defect_shapes():
    stream = inputs.path_stream(5, 300)
    assert stream == inputs.path_stream(5, 300)
    assert stream != inputs.path_stream(6, 300)
    sizes = [len(p) // 2 for p in stream]
    assert min(sizes) == inputs.MIN_N and max(sizes) > 1000
    assert any(n > 14 for n in sizes) and any(n <= 14 for n in sizes)
    stairs = [n for p, n in zip(stream, sizes) if p == "UD" * n]
    pyramids = [n for p, n in zip(stream, sizes) if p == "U" * n + "D" * n]
    assert len(stairs) + len(pyramids) >= 300 // inputs.EXTREME_EVERY
    # phi fails on a cold staircase from ~500 and on a pyramid from ~990
    assert max(stairs) >= 500 and max(pyramids) >= 990


def test_reference_phi_matches_the_package_exhaustively():
    for n in SMALL_N:
        for p in dyckmotz.enumerate_constrained(n):
            image = inputs.reference_phi(str(p))
            assert image == str(dyckmotz.phi(p))
            assert inputs.is_motzkin_word(image, n)


def test_reference_phi_handles_any_depth():
    assert inputs.reference_phi("UD" * 5000) == "F" * 5000
    assert inputs.is_motzkin_word(inputs.reference_phi("U" * 5000 + "D" * 5000), 5000)


def test_motzkin_numbers():
    assert inputs.motzkin_numbers(40) == [dyckmotz.motzkin_number(n) for n in range(40)]
