"""Tests for the VM's sparse memory, including a model-based property."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import VmError
from repro.vm.memory import SparseMemory


def test_zero_initialised():
    mem = SparseMemory()
    assert mem.load_word(0x1000) == 0
    assert mem.load_byte(0x1003) == 0


def test_word_roundtrip():
    mem = SparseMemory()
    mem.store_word(0x100, 12345)
    assert mem.load_word(0x100) == 12345


def test_word_wraps_to_signed32():
    mem = SparseMemory()
    mem.store_word(0x100, 0xFFFFFFFF)
    assert mem.load_word(0x100) == -1
    mem.store_word(0x100, 2**31)
    assert mem.load_word(0x100) == -(2**31)


def test_float_storage():
    mem = SparseMemory()
    mem.store_word(0x100, 2.5)
    assert mem.load_word(0x100) == 2.5


def test_unaligned_word_access_rejected():
    mem = SparseMemory()
    with pytest.raises(VmError):
        mem.load_word(0x101)
    with pytest.raises(VmError):
        mem.store_word(0x102, 1)


def test_negative_address_rejected():
    mem = SparseMemory()
    with pytest.raises(VmError):
        mem.load_word(-4)
    with pytest.raises(VmError):
        mem.store_word(-4, 1)
    with pytest.raises(VmError, match="negative address"):
        mem.load_byte(-1)
    with pytest.raises(VmError, match="negative address"):
        mem.store_byte(-1, 5)
    assert mem.footprint_words() == 0


def test_byte_access_within_word():
    mem = SparseMemory()
    mem.store_word(0x100, 0x01020304)
    assert mem.load_byte(0x100) == 0x04
    assert mem.load_byte(0x101) == 0x03
    assert mem.load_byte(0x103) == 0x01


def test_byte_store_updates_one_byte():
    mem = SparseMemory()
    mem.store_word(0x100, 0x01020304)
    mem.store_byte(0x101, 0xAB)
    assert mem.load_word(0x100) == 0x0102AB04


def test_byte_sign_extension():
    mem = SparseMemory()
    mem.store_byte(0x100, 0xFF)
    assert mem.load_byte(0x100) == -1


def test_byte_access_to_float_word_rejected():
    mem = SparseMemory()
    mem.store_word(0x100, 1.5)
    with pytest.raises(VmError):
        mem.load_byte(0x100)
    with pytest.raises(VmError):
        mem.store_byte(0x101, 1)


def test_footprint_and_clear():
    mem = SparseMemory()
    mem.store_word(0x100, 1)
    mem.store_word(0x200, 2)
    assert mem.footprint_words() == 2
    mem.clear()
    assert mem.footprint_words() == 0
    assert mem.load_word(0x100) == 0


@given(st.lists(
    st.tuples(st.integers(0, 255).map(lambda a: a * 4),
              st.integers(-(2**31), 2**31 - 1)),
    min_size=1, max_size=100,
))
def test_memory_matches_dict_model(writes):
    """Property: SparseMemory behaves like a plain dict of words."""
    mem = SparseMemory()
    model = {}
    for addr, value in writes:
        mem.store_word(addr, value)
        model[addr] = value
    for addr, value in model.items():
        assert mem.load_word(addr) == value


@given(st.lists(st.tuples(st.integers(0, 1023), st.integers(0, 255)),
                min_size=1, max_size=100))
def test_byte_writes_match_bytearray_model(writes):
    """Property: byte stores/loads behave like a bytearray."""
    mem = SparseMemory()
    model = bytearray(1024)
    for addr, value in writes:
        mem.store_byte(addr, value)
        model[addr] = value
    for addr, _ in writes:
        expected = model[addr] - 256 if model[addr] >= 128 else model[addr]
        assert mem.load_byte(addr) == expected
