"""The functional VM.

Executes a :class:`~repro.isa.program.Program`, optionally emitting a
dynamic :class:`~repro.vm.trace.Trace` for the timing simulator.  The
machine runs the program block by block: each basic block is translated
once into a generated Python function (:mod:`repro.vm.translate`), and
:meth:`Machine.run` dispatches from block to block.  The machine also
maintains the activation-record bookkeeping the paper's measurements
need: per-call frame sizes (Figure 3), call depth, frame ids and
``$sp``-relative offsets (fast data forwarding keys).

The per-instruction interpreter this replaced is frozen as
:class:`repro.vm.reference.ReferenceMachine`, the oracle the machine
must match exactly.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import VmExit
from repro.isa.program import HEAP_BASE, Program, STACK_BASE
from repro.isa.registers import Reg, TOTAL_REGS
from repro.vm.memory import SparseMemory
from repro.vm.trace import Trace
from repro.vm.translate import translation_for

_SP = int(Reg.SP)
_FP = int(Reg.FP)


class _Frame:
    """Bookkeeping for one activation record."""

    __slots__ = ("frame_id", "sp_entry", "min_sp", "return_index")

    def __init__(self, frame_id: int, sp_entry: int, return_index: int):
        self.frame_id = frame_id
        self.sp_entry = sp_entry
        self.min_sp = sp_entry
        self.return_index = return_index


class Machine:
    """A functional VM instance bound to one program."""

    def __init__(self, program: Program, trace: bool = True):
        program.resolve()
        self.program = program
        self._code = translation_for(program)
        self.memory = SparseMemory(dict(self._code.image))
        self.regs: List[float] = [0] * TOTAL_REGS
        self.pc = program.entry_index
        self.brk = HEAP_BASE
        self.output: List[str] = []
        self.exit_code: Optional[int] = None
        self.trace: Optional[Trace] = (
            Trace(program.source_name) if trace else None
        )
        self.instructions_executed = 0
        self._frames: List[_Frame] = [_Frame(0, STACK_BASE, -1)]
        self._next_frame_id = 1
        #: Instructions a raising block completed (see ``run``).
        self._stop = 0
        self.regs[_SP] = STACK_BASE
        self.regs[_FP] = STACK_BASE

    # -- frame bookkeeping ----------------------------------------------------

    @property
    def current_frame_id(self) -> int:
        """Frame id of the innermost activation record."""
        return self._frames[-1].frame_id

    @property
    def call_depth(self) -> int:
        """Current call nesting depth (main == 1)."""
        return len(self._frames)

    def _enter_frame(self, return_index: int) -> None:
        frame = _Frame(self._next_frame_id, int(self.regs[_SP]), return_index)
        self._next_frame_id += 1
        self._frames.append(frame)
        if self.trace is not None:
            stats = self.trace.stats
            stats.calls += 1
            if len(self._frames) > stats.max_call_depth:
                stats.max_call_depth = len(self._frames)

    def _leave_frame(self, target_index: int) -> None:
        if len(self._frames) > 1 and self._frames[-1].return_index == target_index:
            frame = self._frames.pop()
            if self.trace is not None:
                words = max(0, (frame.sp_entry - frame.min_sp) // 4)
                self.trace.stats.frame_sizes.add(words)

    # -- main loop -----------------------------------------------------------

    def run(self, max_instructions: int = 50_000_000) -> int:
        """Run until exit or the instruction budget; returns exit code.

        When the budget is hit before the guest exits, the exit code is -1
        and the (partial) trace remains valid — this is how workloads are
        scaled down.
        """
        code = self._code
        traced = self.trace is not None
        blocks = code.blocks[traced]
        regs = self.regs
        mem = self.memory
        words = mem._words
        app = st = None
        if traced:
            app = self.trace.insts.append
            st = self.trace.stats
        pc = self.pc
        executed = start = self.instructions_executed
        try:
            while executed < max_instructions:
                block = blocks.get(pc)
                if block is None:
                    block = code.block(pc, traced)
                fn, n = block
                if executed + n > max_instructions:
                    fn, n = code.tail(pc, max_instructions - executed,
                                      traced)
                pc = fn(self, regs, mem, words, app, st)
                executed += n
        except BaseException as exc:
            # The raising block completed ``_stop`` instructions and
            # recorded them; a guest exit also counts (and records) the
            # exiting syscall, which stays the pc.
            exited = isinstance(exc, VmExit)
            done = self._stop
            self._stop = 0
            self.pc = pc + done
            done += exited
            self.instructions_executed = executed + done
            if traced:
                st.instructions += executed - start
                insts = self.trace.insts
                for inst in insts[len(insts) - done:]:
                    st.observe(inst)
            if not exited:
                raise
            self.exit_code = exc.code
            return exc.code
        self.pc = pc
        self.instructions_executed = executed
        if traced:
            st.instructions += executed - start
        self.exit_code = -1
        return -1

    @property
    def stdout(self) -> str:
        """Everything the guest printed, concatenated."""
        return "".join(self.output)


def run_program(
    program: Program,
    max_instructions: int = 50_000_000,
    trace: bool = True,
) -> Tuple[Machine, Optional[Trace]]:
    """Convenience wrapper: construct a machine, run it, return (vm, trace)."""
    vm = Machine(program, trace=trace)
    vm.run(max_instructions=max_instructions)
    return vm, vm.trace
