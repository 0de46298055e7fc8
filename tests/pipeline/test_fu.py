"""Tests for the functional units.

The pipelined ALUs are per-cycle budgets the issue stage keeps as
locals, so their tests are micro-traces run through the cores
(``run_all_cores`` requires the generated kernel, the portable kernel
and the reference to agree exactly).  The MULT/DIV unit pools keep
busy-until state on :class:`FuPool` and are tested on it directly.
"""

import pytest

from repro.errors import ConfigError
from repro.isa.opcodes import FuClass
from repro.pipeline.fu import FuPool
from repro.vm.trace import DynInst
from tests.core.test_processor import DATA_ADDR, alu, load, run_all_cores, store


def test_ialu_budget():
    three = [alu(8), alu(9), alu(10)]
    _, two_units = run_all_cores(three, ialu_units=2)
    _, wide = run_all_cores(three)
    assert two_units.counters.get("stall.fu") == 1
    assert two_units.cycles == 5
    assert wide.counters.get("stall.fu") == 0
    assert wide.cycles == 4


def test_mem_and_branch_share_ialu():
    insts = [load(8, DATA_ADDR, srcs=(7,)),
             DynInst(int(FuClass.BRANCH), srcs=(7,)),
             store(DATA_ADDR + 0x400, srcs=(7, 6))]
    _, one = run_all_cores(insts, ialu_units=1)
    _, three = run_all_cores(insts, ialu_units=3)
    # Cycle 1: the load takes the one IALU, branch and store stall;
    # cycle 2: the branch takes it, the store stalls again.
    assert one.counters.get("stall.fu") == 3
    assert three.counters.get("stall.fu") == 0


def test_fadd_uses_falu():
    fadd = int(FuClass.FADD)
    insts = [DynInst(fadd, dst=40), DynInst(fadd, dst=41), alu(8)]
    _, result = run_all_cores(insts, ialu_units=1, falu_units=1)
    # Only the second FADD waits; the IALU op draws from its own pool.
    assert result.counters.get("stall.fu") == 1


def test_multiply_pipelined():
    fus = FuPool(ialu=1, falu=1, imultdiv=1, fmultdiv=1)
    assert fus.try_take(FuClass.IMULT, 0)
    assert not fus.try_take(FuClass.IMULT, 0)  # one unit, one issue/cycle
    assert fus.try_take(FuClass.IMULT, 1)  # pipelined: next cycle ok


def test_divide_unpipelined():
    fus = FuPool(ialu=1, falu=1, imultdiv=1, fmultdiv=1)
    assert fus.try_take(FuClass.IDIV, 0)
    assert not fus.try_take(FuClass.IDIV, 1)  # unit busy for 34 cycles
    assert not fus.try_take(FuClass.IMULT, 1)  # shares the busy unit
    assert fus.try_take(FuClass.IDIV, 40)


def test_fdiv_occupies_fmult_unit():
    fus = FuPool(ialu=1, falu=1, imultdiv=1, fmultdiv=1)
    assert fus.try_take(FuClass.FDIV, 0)
    assert not fus.try_take(FuClass.FMUL, 5)
    assert fus.try_take(FuClass.FMUL, 12)


def test_multiple_div_units():
    fus = FuPool(ialu=1, falu=1, imultdiv=2, fmultdiv=1)
    assert fus.try_take(FuClass.IDIV, 0)
    assert fus.try_take(FuClass.IDIV, 0)
    assert not fus.try_take(FuClass.IDIV, 0)


def test_zero_units_rejected():
    with pytest.raises(ConfigError):
        FuPool(ialu=0)


def test_alu_classes_have_no_unit_pool():
    fus = FuPool()
    for fu in (FuClass.IALU, FuClass.FADD, FuClass.LOAD, FuClass.BRANCH):
        with pytest.raises(ConfigError):
            fus.try_take(fu, 0)
