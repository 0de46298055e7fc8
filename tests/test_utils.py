"""Tests for repro.utils."""

import os

import pytest
from hypothesis import given, strategies as st

from repro.utils import (
    align_up,
    geometric_mean,
    is_power_of_two,
    log2_int,
    make_rng,
    sign_extend,
    to_signed32,
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
    assert align_up(37, 8) == 40
    assert align_up(40, 8) == 40


def test_sign_extend():
    assert sign_extend(0xFF, 8) == -1
    assert sign_extend(0x7F, 8) == 127
    assert sign_extend(0x80, 8) == -128


@given(st.integers(-(2**40), 2**40))
def test_signed_unsigned_roundtrip(value):
    assert to_signed32(value & 0xFFFFFFFF) == to_signed32(value)
    assert -(2**31) <= to_signed32(value) < 2**31
    assert to_signed32(value) & 0xFFFFFFFF == value & 0xFFFFFFFF


def test_geometric_mean():
    assert geometric_mean([2, 8]) == pytest.approx(4.0)
    assert geometric_mean([]) == 0.0
    with pytest.raises(ValueError):
        geometric_mean([1, -1])


def test_rng_deterministic():
    assert make_rng(7).random() == make_rng(7).random()
    assert make_rng(7).random() != make_rng(8).random()


def test_write_atomic_replaces_and_cleans_up_on_failure(tmp_path):
    path = str(tmp_path / "out.bin")
    write_atomic(path, b"first")
    write_atomic(path, b"old")
    with pytest.raises(TypeError):
        write_atomic(path, "not bytes")
    with open(path, "rb") as handle:
        assert handle.read() == b"old"
    assert os.listdir(str(tmp_path)) == ["out.bin"]
