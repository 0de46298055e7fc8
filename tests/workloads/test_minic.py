"""Tests for the mini-C benchmark programs."""

import pytest

from repro.errors import WorkloadError
from repro.lang import compile_source
from repro.vm import run_program
from repro.workloads.minic import MINIC_PROGRAMS, minic_source


@pytest.mark.parametrize("name", sorted(MINIC_PROGRAMS))
def test_program_compiles_and_exits_cleanly(name):
    program = compile_source(minic_source(name))
    vm, trace = run_program(program, max_instructions=2_000_000)
    assert vm.exit_code == 0, f"{name} exited with {vm.exit_code}"
    assert vm.stdout.strip(), f"{name} printed no checksum"
    assert trace.stats.instructions > 1000


#: stdout and dynamic instruction count of each program at the default
#: optimization level, recorded from the per-instruction interpreter.
EXPECTED = {
    'mini.compress': ('437551 479\n', 221241),
    'mini.hashdb': ('911942\n', 164061),
    'mini.linkedlist': ('261080\n', 44160),
    'mini.matmul': ('42825\n', 241038),
    'mini.qsort': ('29949\n', 316057),
    'mini.stencil': ('2560578\n', 171427),
    'mini.treesearch': ('105\n', 352224),
    'mini.wordcount': ('336193\n', 329342),
}


def test_expected_checksums_stable():
    """Pin the checksums: any compiler/VM regression changes them."""
    assert sorted(EXPECTED) == sorted(MINIC_PROGRAMS)
    for name in sorted(MINIC_PROGRAMS):
        vm, _ = run_program(compile_source(minic_source(name)),
                            max_instructions=2_000_000)
        assert (vm.stdout, vm.instructions_executed) == EXPECTED[name], name


def test_qsort_sorts():
    vm, _ = run_program(compile_source(minic_source("mini.qsort")),
                        max_instructions=2_000_000)
    assert vm.stdout.strip() != "-1"  # -1 means a sortedness check failed


def test_hashdb_has_call_heavy_local_traffic():
    _, trace = run_program(compile_source(minic_source("mini.hashdb")),
                           max_instructions=2_000_000)
    assert trace.stats.calls > 500
    assert trace.stats.local_fraction > 0.3


def test_treesearch_recursion_depth():
    _, trace = run_program(compile_source(minic_source("mini.treesearch")),
                           max_instructions=2_000_000)
    assert trace.stats.max_call_depth >= 6


def test_stencil_is_float_heavy():
    from repro.isa.opcodes import FuClass

    _, trace = run_program(compile_source(minic_source("mini.stencil")),
                           max_instructions=2_000_000)
    fp = sum(1 for i in trace if i.fu in (int(FuClass.FADD),
                                          int(FuClass.FMUL),
                                          int(FuClass.FDIV)))
    assert fp > 1000


def test_unknown_program_rejected():
    with pytest.raises(WorkloadError):
        minic_source("mini.nope")
