"""Tests for repro.utils."""

import os

import pytest
from hypothesis import given, strategies as st

from repro.utils import (
    align_down,
    align_up,
    chunked,
    clamp,
    fmt_ratio,
    geometric_mean,
    is_power_of_two,
    log2_int,
    make_rng,
    moving_sum,
    sign_extend,
    to_signed32,
    to_unsigned32,
    weighted_choice,
    write_atomic,
)


def test_is_power_of_two():
    assert is_power_of_two(1)
    assert is_power_of_two(1024)
    assert not is_power_of_two(0)
    assert not is_power_of_two(3)
    assert not is_power_of_two(-4)


def test_log2_int():
    assert log2_int(1) == 0
    assert log2_int(32) == 5
    with pytest.raises(ValueError):
        log2_int(3)


def test_alignment():
    assert align_down(37, 8) == 32
    assert align_up(37, 8) == 40
    assert align_up(40, 8) == 40


def test_sign_extend():
    assert sign_extend(0xFF, 8) == -1
    assert sign_extend(0x7F, 8) == 127
    assert sign_extend(0x80, 8) == -128


@given(st.integers(-(2**40), 2**40))
def test_signed_unsigned_roundtrip(value):
    assert to_signed32(to_unsigned32(value)) == to_signed32(value)
    assert -(2**31) <= to_signed32(value) < 2**31
    assert 0 <= to_unsigned32(value) < 2**32


def test_chunked():
    assert list(chunked([1, 2, 3, 4, 5], 2)) == [[1, 2], [3, 4], [5]]
    with pytest.raises(ValueError):
        list(chunked([1], 0))


def test_geometric_mean():
    assert geometric_mean([2, 8]) == pytest.approx(4.0)
    assert geometric_mean([]) == 0.0
    with pytest.raises(ValueError):
        geometric_mean([1, -1])


def test_rng_deterministic():
    assert make_rng(7).random() == make_rng(7).random()
    assert make_rng(7).random() != make_rng(8).random()


def test_weighted_choice():
    rng = make_rng(1)
    assert weighted_choice(rng, ["a", "b"], [1.0, 0.0]) == "a"
    with pytest.raises(ValueError):
        weighted_choice(rng, ["a"], [1.0, 2.0])


def test_clamp():
    assert clamp(5, 0, 10) == 5
    assert clamp(-1, 0, 10) == 0
    assert clamp(99, 0, 10) == 10


def test_fmt_ratio():
    assert fmt_ratio(1, 4) == 0.25
    assert fmt_ratio(1, 0) == 0.0
    assert fmt_ratio(1, 0, default=9.0) == 9.0


def test_moving_sum():
    assert moving_sum([1, 2, 3, 4], 2) == [3, 5, 7]
    with pytest.raises(ValueError):
        moving_sum([1], 0)



def test_write_atomic_replaces_and_cleans_up_on_failure(tmp_path):
    path = str(tmp_path / "out.bin")
    write_atomic(path, b"first")
    write_atomic(path, b"old")
    with pytest.raises(TypeError):
        write_atomic(path, "not bytes")
    with open(path, "rb") as handle:
        assert handle.read() == b"old"
    assert os.listdir(str(tmp_path)) == ["out.bin"]
