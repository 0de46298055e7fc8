"""The block-translating Machine against the frozen ReferenceMachine.

Every case runs one program on both machines and requires identical
registers, memory words, pc, output, exit code, instruction count,
``encode_trace`` SHA-256 and every trace statistic
(:func:`repro.vm.reference.machine_state`) — at completion, at any
instruction budget, at every kind of fault, and untraced.
"""

import pytest

from repro.asm import assemble
from repro.lang import CompilerOptions, compile_source
from repro.vm import translate
from repro.vm.machine import Machine
from repro.vm.reference import ReferenceMachine, machine_state
from repro.workloads.minic import MINIC_PROGRAMS


def _compile(name, level):
    return compile_source(MINIC_PROGRAMS[name][0], CompilerOptions(
        source_name=f"{name}@O{level}", opt_level=level))


def _run(cls, program, budget=50_000_000, trace=True):
    """Run *program* on a new *cls*; returns (machine, exception)."""
    vm = cls(program, trace=trace)
    try:
        vm.run(max_instructions=budget)
    except Exception as exc:  # noqa: BLE001 - faults are compared
        return vm, exc
    return vm, None


def _state(vm, exc):
    state = machine_state(vm)
    state["fault"] = (type(exc).__name__, str(exc)) if exc else None
    return state


def assert_same(program, budget=50_000_000, trace=True):
    """Both machines end in the same state; returns the reference's."""
    ref, ref_exc = _run(ReferenceMachine, program, budget, trace)
    vm, exc = _run(Machine, program, budget, trace)
    want, got = _state(ref, ref_exc), _state(vm, exc)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key
    return ref, ref_exc


@pytest.mark.parametrize("level", (0, 1, 2))
@pytest.mark.parametrize("name", sorted(MINIC_PROGRAMS))
def test_minic_runs_to_completion_identically(name, level):
    ref, exc = assert_same(_compile(name, level))
    assert exc is None and ref.exit_code == 0


@pytest.mark.parametrize("level", (0, 2))
@pytest.mark.parametrize("name", ("mini.hashdb", "mini.stencil"))
def test_budget_cuts_every_offset_of_the_first_blocks(name, level):
    program = _compile(name, level)
    for budget in range(0, 90):
        ref, _ = assert_same(program, budget)
        assert ref.instructions_executed == budget


@pytest.mark.parametrize("name", sorted(MINIC_PROGRAMS))
def test_budget_8000(name):
    for level in (0, 1, 2):
        assert_same(_compile(name, level), 8000)


def test_untraced_runs_identically():
    for name in ("mini.treesearch", "mini.wordcount"):
        program = _compile(name, 2)
        assert_same(program, trace=False)
        assert_same(program, 5000, trace=False)


def test_run_resumes_after_a_budget_stop():
    program = _compile("mini.linkedlist", 2)
    ref, vm = ReferenceMachine(program), Machine(program)
    for budget in (7, 100, 1234, 50_000_000):
        assert vm.run(budget) == ref.run(budget)
        assert _state(vm, None) == _state(ref, None)


_PROLOGUE = """
.data
flt: .float 1.5
.text
main:
    li   $t0, 3
    addi $sp, $sp, -8
    sw   $t0, 4($sp)
    lw   $t1, 4($sp)
    sw   $t0, 0($zero)
"""

#: One hand-assembled program per fault kind; each faults in the middle
#: of a block, after local and non-local memory references.
FAULTS = {
    "pc out of range": "    li $t2, 9999\n    jr $t2\n",
    "negative pc": "    li $t2, -1\n    jr $t2\n",
    "falls off the end": "    nop\n",
    "negative word address": "    lw $t2, -4($zero)\n",
    "negative word store": "    sw $t0, -8($zero)\n",
    "negative byte address": "    lb $t2, -1($zero)\n",
    "negative byte store": "    sb $t0, -1($zero)\n",
    "unaligned load": "    lw $t2, 2($sp)\n",
    "unaligned store": "    sw $t0, 1($sp)\n",
    "division by zero": "    div $t2, $t0, $zero\n",
    "remainder by zero": "    rem $t2, $t0, $zero\n",
    "fp division by zero": ("    cvt.s.w $f1, $t0\n    cvt.s.w $f2, $zero\n"
                            "    div.s $f3, $f1, $f2\n"),
    "float byte load": "    la $t2, flt\n    lb $t3, 1($t2)\n",
    "float byte store": "    la $t2, flt\n    sb $t0, 2($t2)\n",
    "unknown syscall": "    syscall 9\n",
    "negative sbrk": "    li $a0, -4\n    syscall 3\n",
    "float overflow to int": ("    li $t2, 2\n    cvt.s.w $f1, $t2\n"
                              + "    mul.s $f1, $f1, $f1\n" * 11
                              + "    cvt.w.s $t3, $f1\n"),
    "exit": "    li $a0, 7\n    syscall 0\n",
}


@pytest.mark.parametrize("kind", sorted(FAULTS))
def test_fault_leaves_identical_state(kind):
    source = _PROLOGUE + FAULTS[kind]
    if kind != "falls off the end":
        source += "    li $a0, 0\n    syscall 0\n"
    program = assemble(source)
    ref, exc = assert_same(program)
    if kind == "exit":
        assert exc is None and ref.exit_code == 7
    else:
        assert exc is not None
    assert_same(program, trace=False)
    # The faulting block again, cut one instruction short of the fault.
    assert_same(program, ref.instructions_executed - 1)


def test_exit_is_counted_and_stays_the_pc():
    program = assemble("main:\n    li $a0, 3\n    syscall 0\n")
    vm = Machine(program)
    assert vm.run() == 3
    assert (vm.pc, vm.instructions_executed, len(vm.trace)) == (1, 2, 2)
    # Running again re-executes the exit, like the interpreter.
    assert vm.run() == 3
    assert (vm.pc, vm.instructions_executed, len(vm.trace)) == (1, 3, 3)


def test_initial_memory_image_matches_the_interpreter():
    for name in sorted(MINIC_PROGRAMS):
        program = _compile(name, 0)
        image = Machine(program).memory._words
        assert image == ReferenceMachine(program).memory._words
        assert image is not Machine(program).memory._words


def test_translations_are_cached_by_program_content():
    translate.clear_cache()
    first = Machine(_compile("mini.qsort", 2))._code
    assert Machine(_compile("mini.qsort", 2))._code is first
    assert Machine(_compile("mini.qsort", 0))._code is not first
    # Same code, data that only differs in type: separate images.
    ints = assemble(".data\nw: .word 1\n.text\nmain:\n    nop\n")
    floats = assemble(".data\nw: .float 1.0\n.text\nmain:\n    nop\n")
    assert Machine(ints)._code is not Machine(floats)._code


def test_translation_cache_is_lru_bounded():
    translate.clear_cache()
    programs = [assemble(f"main:\n    li $a0, {i}\n    syscall 0\n")
                for i in range(translate.CACHE_SIZE + 1)]
    first = Machine(programs[0])._code
    for program in programs[1:-1]:
        Machine(program)
    assert Machine(programs[0])._code is first  # now most recently used
    Machine(programs[-1])
    assert len(translate._CACHE) == translate.CACHE_SIZE
    assert first in translate._CACHE.values()
    # The least recently used program was dropped.
    assert translate.program_key(programs[1]) not in translate._CACHE
