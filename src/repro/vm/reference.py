"""The frozen per-instruction interpreter (functional oracle).

This module is a verbatim capture of ``repro.vm.machine`` as it stood
before the VM learned to translate basic blocks into generated Python
(:mod:`repro.vm.translate`).  It executes a
:class:`~repro.isa.program.Program` one instruction at a time through
``_step`` and emits the same dynamic :class:`~repro.vm.trace.Trace`.  It
exists so the translated :class:`repro.vm.machine.Machine` can be checked
against it: identical registers, memory words, pc, output, exit code,
instruction count, ``encode_trace`` bytes and trace statistics, at
completion, at any instruction budget and at every fault
(``tests/vm/test_translate.py`` and the ``opt`` fuzz oracle).

Do **not** optimize this file.  If the live machine and this reference
ever disagree, the live machine is wrong (or the ISA semantics changed,
in which case this file must be re-frozen in the same commit and the
change called out as a semantics change).  Only the tests, the ``opt``
fuzz oracle and the ``vm`` lane of ``repro-cc perf`` import it.

Shared with the live machine (deliberately): :class:`SparseMemory` and
the trace containers — the memory's fault checks are part of the
contract both machines must honour.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional

from repro.errors import VmError, VmExit
from repro.isa.instruction import Instruction
from repro.isa.opcodes import FuClass, Opcode, Syscall
from repro.isa.program import (
    HEAP_BASE,
    Program,
    STACK_BASE,
    STACK_LIMIT,
)
from repro.isa.registers import FPR_BASE, Reg, TOTAL_REGS
from repro.utils import to_signed32
from repro.vm.memory import SparseMemory
from repro.vm.trace import DynInst, NO_REG, Trace

_SP = int(Reg.SP)
_FP = int(Reg.FP)
_RA = int(Reg.RA)
_V0 = int(Reg.V0)
_A0 = int(Reg.A0)
_F12 = FPR_BASE + 12


class _Frame:
    """Bookkeeping for one activation record."""

    __slots__ = ("frame_id", "sp_entry", "min_sp", "return_index")

    def __init__(self, frame_id: int, sp_entry: int, return_index: int):
        self.frame_id = frame_id
        self.sp_entry = sp_entry
        self.min_sp = sp_entry
        self.return_index = return_index


class ReferenceMachine:
    """The seed interpreter, bound to one program."""

    def __init__(self, program: Program, trace: bool = True):
        program.resolve()
        self.program = program
        self.memory = SparseMemory()
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
        self.regs[_SP] = STACK_BASE
        self.regs[_FP] = STACK_BASE
        self._init_data()

    def _init_data(self) -> None:
        for item in self.program.data:
            addr = self.program.data_address(item.name)
            if item.element_size == 1:
                for i, value in enumerate(item.values):
                    self.memory.store_byte(addr + i, int(value))
            else:
                for i, value in enumerate(item.values):
                    self.memory.store_word(addr + i * 4, value)

    # -- register helpers ---------------------------------------------------

    def _read(self, index: int):
        return self.regs[index]

    def _write(self, index: int, value) -> None:
        if index == 0:  # $zero is hardwired
            return
        if index < FPR_BASE and isinstance(value, float):
            value = to_signed32(int(value))
        elif index < FPR_BASE:
            value = to_signed32(value)
        self.regs[index] = value
        if index == _SP:
            frame = self._frames[-1]
            if value < frame.min_sp:
                frame.min_sp = value

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
        code = len(self.program.instructions)
        try:
            while self.instructions_executed < max_instructions:
                if not 0 <= self.pc < code:
                    raise VmError(f"pc out of range: {self.pc}")
                self._step(self.program.instructions[self.pc])
        except VmExit as exit_:
            self.exit_code = exit_.code
            return exit_.code
        self.exit_code = -1
        return -1

    def _step(self, ins: Instruction) -> None:
        op = ins.op
        pc = self.pc
        next_pc = pc + 1
        regs = self.regs
        fu = op.fu

        if fu == FuClass.IALU:
            self._exec_ialu(ins)
        elif fu == FuClass.LOAD or fu == FuClass.STORE:
            self._exec_mem(ins, pc)
            self.instructions_executed += 1
            self.pc = next_pc
            return
        elif fu == FuClass.BRANCH:
            next_pc = self._exec_branch(ins, pc, next_pc)
        elif fu == FuClass.IMULT:
            a, b = regs[ins.rs], regs[ins.rt]
            self._write(ins.rd, to_signed32(int(a) * int(b)))
        elif fu == FuClass.IDIV:
            self._exec_div(ins)
        elif fu in (FuClass.FADD, FuClass.FMUL, FuClass.FDIV):
            self._exec_fp(ins)
        elif fu == FuClass.SYSCALL:
            self._exec_syscall(ins)
        elif fu == FuClass.NONE:
            pass
        else:
            raise VmError(f"unhandled opcode {op.mnemonic}")

        if self.trace is not None:
            self.trace.append(
                DynInst(int(fu), ins.writes[0] if ins.writes else NO_REG,
                        ins.reads, pc=pc)
            )
        self.instructions_executed += 1
        self.pc = next_pc

    # -- execution helpers ---------------------------------------------------

    def _exec_ialu(self, ins: Instruction) -> None:
        op = ins.op
        regs = self.regs
        if op is Opcode.ADD:
            value = int(regs[ins.rs]) + int(regs[ins.rt])
        elif op is Opcode.ADDI:
            value = int(regs[ins.rs]) + ins.imm
        elif op is Opcode.SUB:
            value = int(regs[ins.rs]) - int(regs[ins.rt])
        elif op is Opcode.AND:
            value = int(regs[ins.rs]) & int(regs[ins.rt])
        elif op is Opcode.ANDI:
            value = int(regs[ins.rs]) & ins.imm
        elif op is Opcode.OR:
            value = int(regs[ins.rs]) | int(regs[ins.rt])
        elif op is Opcode.ORI:
            value = int(regs[ins.rs]) | ins.imm
        elif op is Opcode.XOR:
            value = int(regs[ins.rs]) ^ int(regs[ins.rt])
        elif op is Opcode.XORI:
            value = int(regs[ins.rs]) ^ ins.imm
        elif op is Opcode.NOR:
            value = ~(int(regs[ins.rs]) | int(regs[ins.rt]))
        elif op is Opcode.SLL:
            value = int(regs[ins.rs]) << (ins.imm & 31)
        elif op is Opcode.SRL:
            value = (int(regs[ins.rs]) & 0xFFFFFFFF) >> (ins.imm & 31)
        elif op is Opcode.SRA:
            value = int(regs[ins.rs]) >> (ins.imm & 31)
        elif op is Opcode.SLLV:
            value = int(regs[ins.rs]) << (int(regs[ins.rt]) & 31)
        elif op is Opcode.SRLV:
            value = (int(regs[ins.rs]) & 0xFFFFFFFF) >> (int(regs[ins.rt]) & 31)
        elif op is Opcode.SRAV:
            value = int(regs[ins.rs]) >> (int(regs[ins.rt]) & 31)
        elif op is Opcode.SLT:
            value = 1 if int(regs[ins.rs]) < int(regs[ins.rt]) else 0
        elif op is Opcode.SLTI:
            value = 1 if int(regs[ins.rs]) < ins.imm else 0
        elif op is Opcode.SLTU:
            value = 1 if (int(regs[ins.rs]) & 0xFFFFFFFF) < (
                int(regs[ins.rt]) & 0xFFFFFFFF) else 0
        elif op is Opcode.LUI:
            value = ins.imm << 16
        elif op is Opcode.LI or op is Opcode.LA:
            value = ins.imm
        elif op is Opcode.MOVE:
            value = regs[ins.rs]
        else:
            raise VmError(f"unhandled IALU opcode {op.mnemonic}")
        self._write(ins.rd, value)

    def _exec_div(self, ins: Instruction) -> None:
        a = int(self.regs[ins.rs])
        b = int(self.regs[ins.rt])
        if b == 0:
            raise VmError(f"division by zero at pc={self.pc}")
        quotient = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            quotient = -quotient
        if ins.op is Opcode.DIV:
            self._write(ins.rd, quotient)
        else:  # REM
            self._write(ins.rd, a - quotient * b)

    def _exec_fp(self, ins: Instruction) -> None:
        op = ins.op
        regs = self.regs
        if op is Opcode.FADD:
            value = float(regs[ins.rs]) + float(regs[ins.rt])
        elif op is Opcode.FSUB:
            value = float(regs[ins.rs]) - float(regs[ins.rt])
        elif op is Opcode.FMUL:
            value = float(regs[ins.rs]) * float(regs[ins.rt])
        elif op is Opcode.FDIV:
            b = float(regs[ins.rt])
            if b == 0.0:
                raise VmError(f"FP division by zero at pc={self.pc}")
            value = float(regs[ins.rs]) / b
        elif op is Opcode.FNEG:
            value = -float(regs[ins.rs])
        elif op is Opcode.FMOV:
            value = float(regs[ins.rs])
        elif op is Opcode.CVTSW:
            value = float(int(regs[ins.rs]))
        elif op is Opcode.CVTWS:
            value = int(float(regs[ins.rs]))
        elif op is Opcode.CLTS:
            value = 1 if float(regs[ins.rs]) < float(regs[ins.rt]) else 0
        elif op is Opcode.CLES:
            value = 1 if float(regs[ins.rs]) <= float(regs[ins.rt]) else 0
        elif op is Opcode.CEQS:
            value = 1 if float(regs[ins.rs]) == float(regs[ins.rt]) else 0
        else:
            raise VmError(f"unhandled FP opcode {op.mnemonic}")
        self._write(ins.rd, value)

    def _exec_branch(self, ins: Instruction, pc: int, next_pc: int) -> int:
        op = ins.op
        regs = self.regs
        if op is Opcode.BEQ:
            taken = regs[ins.rs] == regs[ins.rt]
        elif op is Opcode.BNE:
            taken = regs[ins.rs] != regs[ins.rt]
        elif op is Opcode.BLEZ:
            taken = int(regs[ins.rs]) <= 0
        elif op is Opcode.BGTZ:
            taken = int(regs[ins.rs]) > 0
        elif op is Opcode.BLTZ:
            taken = int(regs[ins.rs]) < 0
        elif op is Opcode.BGEZ:
            taken = int(regs[ins.rs]) >= 0
        elif op is Opcode.J:
            return ins.imm
        elif op is Opcode.JAL:
            self._write(_RA, next_pc)
            self._enter_frame(next_pc)
            return ins.imm
        elif op is Opcode.JALR:
            target = int(regs[ins.rs])
            self._write(_RA, next_pc)
            self._enter_frame(next_pc)
            return target
        elif op is Opcode.JR:
            target = int(regs[ins.rs])
            self._leave_frame(target)
            return target
        else:
            raise VmError(f"unhandled branch opcode {op.mnemonic}")
        return ins.imm if taken else next_pc

    def _exec_mem(self, ins: Instruction, pc: int) -> None:
        op = ins.op
        base = int(self.regs[ins.rs])
        addr = base + ins.imm
        if op is Opcode.LW:
            value = self.memory.load_word(addr)
            self._write(ins.rd, int(value) if not isinstance(value, float)
                        else int(value))
        elif op is Opcode.LS:
            value = self.memory.load_word(addr)
            self._write(ins.rd, float(value))
        elif op is Opcode.LB:
            self._write(ins.rd, self.memory.load_byte(addr))
        elif op is Opcode.SW:
            self.memory.store_word(addr, int(self.regs[ins.rt]))
        elif op is Opcode.SS:
            self.memory.store_word(addr, float(self.regs[ins.rt]))
        elif op is Opcode.SB:
            self.memory.store_byte(addr, int(self.regs[ins.rt]))
        else:
            raise VmError(f"unhandled memory opcode {op.mnemonic}")

        if self.trace is not None:
            is_local = STACK_LIMIT <= addr < STACK_BASE
            sp_based = ins.rs == _SP or ins.rs == _FP
            frame = self._frames[-1]
            self.trace.append(
                DynInst(
                    int(op.fu),
                    ins.rd if op.is_load else NO_REG,
                    ins.reads,
                    addr=addr,
                    size=ins.mem_size,
                    local_hint=ins.local,
                    is_local=is_local,
                    sp_based=sp_based,
                    frame_id=frame.frame_id if sp_based else 0,
                    offset=addr - int(self.regs[_SP]) if sp_based else 0,
                    pc=pc,
                )
            )

    def _exec_syscall(self, ins: Instruction) -> None:
        call = ins.imm
        if call == Syscall.EXIT:
            if self.trace is not None:
                self.trace.append(
                    DynInst(int(FuClass.SYSCALL), srcs=(_A0,), pc=self.pc)
                )
            self.instructions_executed += 1
            raise VmExit(int(self.regs[_A0]))
        if call == Syscall.PRINT_INT:
            self.output.append(str(int(self.regs[_A0])))
        elif call == Syscall.PRINT_CHAR:
            self.output.append(chr(int(self.regs[_A0]) & 0xFF))
        elif call == Syscall.PRINT_FLOAT:
            self.output.append(f"{float(self.regs[_F12]):.6g}")
        elif call == Syscall.SBRK:
            amount = int(self.regs[_A0])
            if amount < 0:
                raise VmError("sbrk with negative amount")
            self._write(_V0, self.brk)
            self.brk += (amount + 3) & ~3
        else:
            raise VmError(f"unknown syscall {call}")

    @property
    def stdout(self) -> str:
        """Everything the guest printed, concatenated."""
        return "".join(self.output)



def machine_state(vm) -> Dict[str, Any]:
    """Everything the two machines must agree on, as a comparable dict.

    Works on a :class:`ReferenceMachine` or a translated
    :class:`repro.vm.machine.Machine`: registers, memory words, pc,
    output, exit code, heap break, instruction count and frame position,
    plus — for a traced run — the SHA-256 of ``encode_trace`` and every
    :class:`~repro.vm.trace.TraceStats` field (the ``frame_sizes``
    histogram as its bins and total).
    """
    from repro.trace.format import encode_trace

    state: Dict[str, Any] = {
        "regs": list(vm.regs), "memory": dict(vm.memory._words),
        "pc": vm.pc, "output": list(vm.output), "exit_code": vm.exit_code,
        "brk": vm.brk, "instructions": vm.instructions_executed,
        "frame": (vm.current_frame_id, vm.call_depth),
    }
    if vm.trace is not None:
        state["trace_sha256"] = hashlib.sha256(
            encode_trace(vm.trace)).hexdigest()
        for name, value in vars(vm.trace.stats).items():
            if name == "frame_sizes":
                value = (list(value.items()), value.total)
            state["stats." + name] = value
    return state
