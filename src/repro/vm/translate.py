"""Basic-block translation for the functional VM.

:class:`repro.vm.machine.Machine` does not interpret instructions one at
a time.  It runs a program as a chain of basic blocks, and this module
turns each block into one generated Python function — the same
splice-and-``exec`` technique as the timing kernel's composer
(:mod:`repro.core.stages.compose`, :mod:`repro.core.stages.specialize`).

**Blocks.**  A block starts at the entry, at any branch or jump target,
and right after any branch, jump or syscall; it runs up to the next such
boundary, through its closing branch, jump or syscall.  A ``jr``/``jalr``
to any other index simply starts a block there.  Blocks are translated
lazily, the first time they are entered.

**Generated code.**  Register numbers, immediates, ``local`` hints,
``sp_based`` and access sizes are literals, and the signed 32-bit wrap is
written inline (and left out where the operands prove it a no-op).  A
traced block appends its :class:`~repro.vm.trace.DynInst` records —
prebuilt shared records for non-memory instructions, since every field of
those is static — bumps its :class:`~repro.vm.trace.TraceStats` counts
once at the end, and returns the next pc.  The untraced variant emits
neither.  Word accesses index the memory dict directly; anything the
fast path does not handle (a negative or unaligned address, byte
accesses) goes through :class:`~repro.vm.memory.SparseMemory`, so both
machines raise the very same errors.

**Faults.**  Each instruction checks and raises before it writes
anything, exactly as the interpreter does.  The block keeps the index of
the instruction it is on in a local; when anything raises, it stores
that index on the machine as ``_stop`` and re-raises, and the machine
settles ``pc``, ``instructions_executed`` and the trace statistics of
the partial block (``Machine.run``).

**Budget.**  A block longer than the remaining instruction budget is run
as a truncated translation of its first instructions, cached by
``(start, length)``, so a budgeted run stops on the same instruction as
the interpreter.

**Cache.**  Translations are cached by program content — every
instruction's fields, the entry index and the initialised data — in an
LRU of :data:`CACHE_SIZE` programs.  A program compiled again from the
same source reuses its blocks.  The cache entry also holds the program's
initial memory image, which each machine copies instead of replaying
one store per data element.

The frozen interpreter in :mod:`repro.vm.reference` is the oracle:
``tests/vm/test_translate.py`` and the ``opt`` fuzz oracle require
identical architectural state, trace bytes and statistics.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import VmError, VmExit
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Fmt, FuClass, Opcode, Syscall
from repro.isa.program import Program, STACK_BASE, STACK_LIMIT
from repro.isa.registers import FPR_BASE, Reg
from repro.utils import to_signed32
from repro.vm.memory import SparseMemory, Word
from repro.vm.trace import DynInst, NO_REG

#: Programs whose translations are kept (least recently used dropped).
CACHE_SIZE = 32

#: A translated block: ``(function, instruction count)``.  The function is
#: called as ``fn(machine, regs, memory, words, append, stats)`` and
#: returns the next pc.
Block = Tuple[Callable[..., int], int]

_SP = int(Reg.SP)
_FP = int(Reg.FP)
_RA = int(Reg.RA)
_V0 = int(Reg.V0)
_A0 = int(Reg.A0)
_F12 = FPR_BASE + 12

_ENDS_BLOCK = (FuClass.BRANCH, FuClass.SYSCALL)
_HAS_TARGET = (Fmt.BR2, Fmt.BR1, Fmt.J)

_COND = {
    Opcode.BEQ: "{s} == {t}",
    Opcode.BNE: "{s} != {t}",
    Opcode.BLEZ: "{a} <= 0",
    Opcode.BGTZ: "{a} > 0",
    Opcode.BLTZ: "{a} < 0",
    Opcode.BGEZ: "{a} >= 0",
}


def _wrap(expr: str) -> str:
    """*expr* wrapped to signed 32 bits (``repro.utils.to_signed32``)."""
    return f"(({expr}) + 0x80000000 & 0xFFFFFFFF) - 0x80000000"


def _in32(value: int) -> bool:
    return -0x80000000 <= value <= 0x7FFFFFFF


def _int(reg: int) -> str:
    """``int(regs[reg])``: general registers always hold 32-bit ints."""
    return f"regs[{reg}]" if reg < FPR_BASE else f"int(regs[{reg}])"


def _float(reg: int) -> str:
    return f"float(regs[{reg}])"


class _Emitter:
    """Source lines of one block function, built instruction by instruction."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.lines: List[str] = []
        self.consts: Dict[str, Any] = {}
        self.frame = False  # the block reads the current frame
        self.counts = {"loads": 0, "stores": 0, "sp_based_refs": 0,
                       "ambiguous_refs": 0}

    def emit(self, *lines: str) -> None:
        self.lines.extend(lines)

    def write(self, rd: int, expr: str, kind: str) -> None:
        """The interpreter's ``_write``: *kind* says what *expr* is.

        ``i32`` — an int already in signed 32-bit range; ``int`` — any
        int; ``num`` — an int or a float.
        """
        if rd == 0:  # $zero: evaluated for its faults only
            self.emit(expr)
            return
        if rd < FPR_BASE and kind != "i32":
            expr = _wrap(expr if kind == "int" else f"int({expr})")
        if rd == _SP:
            self.frame = True
            self.emit(f"v = {expr}", f"regs[{_SP}] = v",
                      "if v < fr.min_sp:", "    fr.min_sp = v")
        else:
            self.emit(f"regs[{rd}] = {expr}")

    def record(self, pc: int, fu: int, dst: int,
               srcs: Tuple[int, ...]) -> None:
        """Append the static record of a non-memory instruction."""
        if self.traced:
            name = f"d{pc}"
            self.consts[name] = DynInst(fu, dst, srcs, pc=pc)
            self.emit(f"app({name})")


#: IALU opcode -> (expression, result kind).  Kind ``"i32?"`` is ``i32``
#: when every operand is a 32-bit int (a general register or an in-range
#: immediate) and ``int`` otherwise.
_IALU = {
    Opcode.ADD: ("{a} + {b}", "int"),
    Opcode.ADDI: ("{a} + {imm}", "int"),
    Opcode.SUB: ("{a} - {b}", "int"),
    Opcode.AND: ("{a} & {b}", "i32?"),
    Opcode.ANDI: ("{a} & {imm}", "i32?"),
    Opcode.OR: ("{a} | {b}", "i32?"),
    Opcode.ORI: ("{a} | {imm}", "i32?"),
    Opcode.XOR: ("{a} ^ {b}", "i32?"),
    Opcode.XORI: ("{a} ^ {imm}", "i32?"),
    Opcode.NOR: ("~({a} | {b})", "i32?"),
    Opcode.SLL: ("{a} << {shift}", "int"),
    Opcode.SRL: ("({a} & 0xFFFFFFFF) >> {shift}", "int"),
    Opcode.SRA: ("{a} >> {shift}", "i32?"),
    Opcode.SLLV: ("{a} << ({b} & 31)", "int"),
    Opcode.SRLV: ("({a} & 0xFFFFFFFF) >> ({b} & 31)", "int"),
    Opcode.SRAV: ("{a} >> ({b} & 31)", "i32?"),
    Opcode.SLT: ("1 if {a} < {b} else 0", "i32"),
    Opcode.SLTI: ("1 if {a} < {imm} else 0", "i32"),
    Opcode.SLTU: ("1 if ({a} & 0xFFFFFFFF) < ({b} & 0xFFFFFFFF) else 0",
                  "i32"),
}

#: FP opcode -> (expression, result kind); operands are ``float()``-ed.
_FP = {
    Opcode.FADD: ("{a} + {b}", "num"),
    Opcode.FSUB: ("{a} - {b}", "num"),
    Opcode.FMUL: ("{a} * {b}", "num"),
    Opcode.FNEG: ("-{a}", "num"),
    Opcode.FMOV: ("{a}", "num"),
    Opcode.CVTSW: ("float({i})", "num"),
    Opcode.CVTWS: ("int({a})", "int"),
    Opcode.CLTS: ("1 if {a} < {b} else 0", "i32"),
    Opcode.CLES: ("1 if {a} <= {b} else 0", "i32"),
    Opcode.CEQS: ("1 if {a} == {b} else 0", "i32"),
}


def _ialu(em: _Emitter, ins: Instruction) -> None:
    op, rd, rs, rt, imm = ins.op, ins.rd, ins.rs, ins.rt, ins.imm
    if op is Opcode.LUI or op is Opcode.LI or op is Opcode.LA:
        value = imm << 16 if op is Opcode.LUI else imm
        em.write(rd, repr(to_signed32(value) if rd < FPR_BASE else value),
                 "i32")
    elif op is Opcode.MOVE:
        em.write(rd, f"regs[{rs}]", "i32" if rs < FPR_BASE else "num")
    else:
        template, kind = _IALU[op]
        rrr = op.fmt is Fmt.RRR
        if kind == "i32?":
            exact = rs < FPR_BASE and (rt < FPR_BASE if rrr else _in32(imm))
            kind = "i32" if exact else "int"
        em.write(rd, template.format(
            a=_int(rs), b=_int(rt) if rrr else None, imm=imm,
            shift=None if rrr else imm & 31), kind)


def _fp(em: _Emitter, ins: Instruction, pc: int) -> None:
    op, rd, rs, rt = ins.op, ins.rd, ins.rs, ins.rt
    if op is Opcode.FDIV:
        # The interpreter reads the divisor first.
        em.emit(f"y = {_float(rt)}", "if y == 0.0:",
                f"    raise VmError({f'FP division by zero at pc={pc}'!r})")
        em.write(rd, f"{_float(rs)} / y", "num")
        return
    template, kind = _FP[op]
    em.write(rd, template.format(
        a=_float(rs), b=_float(rt) if op.fmt is Fmt.RRR else None,
        i=_int(rs)), kind)


def _div(em: _Emitter, ins: Instruction, pc: int) -> None:
    em.emit(f"x = {_int(ins.rs)}", f"y = {_int(ins.rt)}", "if y == 0:",
            f"    raise VmError({f'division by zero at pc={pc}'!r})",
            "q = abs(x) // abs(y)", "if (x < 0) != (y < 0):", "    q = -q")
    em.write(ins.rd, "q" if ins.op is Opcode.DIV else "x - q * y", "int")


def _mem(em: _Emitter, ins: Instruction, pc: int) -> None:
    op, rd, rs, rt = ins.op, ins.rd, ins.rs, ins.rt
    em.emit(f"a = {_int(rs)} + {ins.imm}")
    # Operands are read in the interpreter's order; a bad address goes
    # through SparseMemory, which raises its own error.
    if op is Opcode.LW or op is Opcode.LS:
        em.emit("if a < 0 or a & 3:", "    mem.load_word(a)",
                "v = words.get(a, 0)")
        if op is Opcode.LS:
            em.write(rd, "float(v)", "num")
        elif rd < FPR_BASE and rd != 0:
            em.write(rd, f"v if v.__class__ is int else {_wrap('int(v)')}",
                     "i32")
        else:
            em.write(rd, "int(v)", "int")
    elif op is Opcode.LB:
        em.write(rd, "mem.load_byte(a)", "i32")
    elif op is Opcode.SB:
        em.emit(f"mem.store_byte(a, {_int(rt)})")
    else:
        value = _int(rt) if op is Opcode.SW else _float(rt)
        if op is Opcode.SW and rt >= FPR_BASE:
            value = _wrap(value)
        em.emit(f"x = {value}", "if a < 0 or a & 3:",
                "    mem.store_word(a, x)", "words[a] = x")
    if not em.traced:
        return
    load = op.is_load
    sp_based = rs == _SP or rs == _FP
    counts = em.counts
    counts["loads" if load else "stores"] += 1
    counts["sp_based_refs"] += sp_based
    counts["ambiguous_refs"] += ins.local is None
    em.frame |= sp_based
    em.emit(f"loc = {STACK_LIMIT} <= a < {STACK_BASE}",
            f"{'ll' if load else 'ls'} += loc",
            f"app(DynInst({int(op.fu)}, {rd if load else NO_REG}, "
            f"{ins.reads!r}, a, {ins.mem_size}, {ins.local!r}, loc, "
            f"{sp_based}, {'fr.frame_id' if sp_based else 0}, "
            f"{f'a - regs[{_SP}]' if sp_based else 0}, {pc}))")


def _branch(em: _Emitter, ins: Instruction, pc: int) -> str:
    """Emit a control transfer; returns the next-pc expression."""
    op, nxt = ins.op, pc + 1
    if op is Opcode.J:
        target = repr(ins.imm)
    elif op is Opcode.JAL or op is Opcode.JALR:
        target = repr(ins.imm)
        if op is Opcode.JALR:
            em.emit(f"t = {_int(ins.rs)}")
            target = "t"
        em.write(_RA, repr(to_signed32(nxt)), "i32")
        em.emit(f"m._enter_frame({nxt})")
    elif op is Opcode.JR:
        em.emit(f"t = {_int(ins.rs)}", "m._leave_frame(t)")
        target = "t"
    else:
        cond = _COND[op].format(s=f"regs[{ins.rs}]", t=f"regs[{ins.rt}]",
                                a=_int(ins.rs))
        em.emit(f"t = {ins.imm} if {cond} else {nxt}")
        target = "t"
    em.record(pc, int(FuClass.BRANCH),
              ins.writes[0] if ins.writes else NO_REG, ins.reads)
    return target


def _syscall(em: _Emitter, ins: Instruction, pc: int) -> None:
    call = ins.imm
    if call == Syscall.EXIT:
        em.record(pc, int(FuClass.SYSCALL), NO_REG, (_A0,))
        em.emit(f"raise VmExit(regs[{_A0}])")
        return
    if call == Syscall.PRINT_INT:
        em.emit(f"m.output.append(str(regs[{_A0}]))")
    elif call == Syscall.PRINT_CHAR:
        em.emit(f"m.output.append(chr(regs[{_A0}] & 0xFF))")
    elif call == Syscall.PRINT_FLOAT:
        em.emit(f"m.output.append(format({_float(_F12)}, '.6g'))")
    elif call == Syscall.SBRK:
        em.emit(f"x = regs[{_A0}]", "if x < 0:",
                "    raise VmError('sbrk with negative amount')")
        em.write(_V0, "m.brk", "int")
        em.emit("m.brk += (x + 3) & ~3")
    else:
        em.emit(f"raise VmError({f'unknown syscall {call}'!r})")
        return
    em.record(pc, int(FuClass.SYSCALL), _V0, ins.reads)


def block_source(instructions: List[Instruction], start: int, n: int,
                 traced: bool) -> Tuple[str, Dict[str, Any]]:
    """Source of the block function for ``instructions[start:start+n]``.

    Returns the source and the constants it refers to (the prebuilt
    records of non-memory instructions).
    """
    em = _Emitter(traced)
    target = repr(start + n)
    for k in range(n):
        pc = start + k
        ins = instructions[pc]
        fu = ins.op.fu
        em.emit(f"# {pc}: {ins!r}")
        if k:
            em.emit(f"k = {k}")
        if fu is FuClass.LOAD or fu is FuClass.STORE:
            _mem(em, ins, pc)
            continue
        if fu is FuClass.BRANCH:
            target = _branch(em, ins, pc)
            continue
        if fu is FuClass.SYSCALL:
            _syscall(em, ins, pc)
            continue
        if fu is FuClass.IALU:
            _ialu(em, ins)
        elif fu is FuClass.IMULT:
            em.write(ins.rd, _wrap(f"{_int(ins.rs)} * {_int(ins.rt)}"),
                     "i32")
        elif fu is FuClass.IDIV:
            _div(em, ins, pc)
        elif fu is not FuClass.NONE:
            _fp(em, ins, pc)
        em.record(pc, int(fu), ins.writes[0] if ins.writes else NO_REG,
                  ins.reads)

    head = ["def _block(m, regs, mem, words, app, st):"]
    if em.frame:
        head.append("    fr = m._frames[-1]")
    counts = em.counts
    if counts["loads"] or counts["stores"]:
        head.append("    ll = ls = 0")
    tail = []
    for name, local in (("loads", "ll"), ("stores", "ls")):
        if counts[name]:
            tail += [f"    st.{name} += {counts[name]}",
                     f"    st.local_{name} += {local}"]
    for name in ("sp_based_refs", "ambiguous_refs"):
        if counts[name]:
            tail.append(f"    st.{name} += {counts[name]}")
    source = "\n".join(
        head + ["    try:", "        k = 0"]
        + ["        " + line for line in em.lines]
        + ["    except BaseException:", "        m._stop = k", "        raise"]
        + tail + [f"    return {target}", ""])
    return source, em.consts


def _compile_block(instructions: List[Instruction], start: int, n: int,
                   traced: bool) -> Block:
    source, consts = block_source(instructions, start, n, traced)
    namespace: Dict[str, Any] = {"DynInst": DynInst, "VmError": VmError,
                                 "VmExit": VmExit}
    namespace.update(consts)
    exec(compile(source, f"<vm block {start}+{n}>", "exec"), namespace)
    return namespace["_block"], n


def initial_image(program: Program) -> Dict[int, Word]:
    """The program's initialised data as an address -> word dict."""
    memory = SparseMemory()
    for item in program.data:
        addr = program.data_address(item.name)
        if item.element_size == 1:
            for i, value in enumerate(item.values):
                memory.store_byte(addr + i, int(value))
        else:
            for i, value in enumerate(item.values):
                memory.store_word(addr + i * 4, value)
    return memory._words


class Translation:
    """One program's translated blocks and initial memory image."""

    __slots__ = ("instructions", "image", "blocks", "_leaders", "_tails")

    def __init__(self, program: Program):
        # A detached copy: the blocks must not change if the caller
        # edits the program's instructions later.
        self.instructions = [ins.copy() for ins in program.instructions]
        self.image = initial_image(program)
        #: Full blocks by start pc, untraced (``[False]``) and traced.
        self.blocks: Tuple[Dict[int, Block], Dict[int, Block]] = ({}, {})
        leaders = {program.entry_index}
        for i, ins in enumerate(self.instructions):
            if ins.op.fu in _ENDS_BLOCK:
                leaders.add(i + 1)
                if ins.op.fmt in _HAS_TARGET:
                    leaders.add(ins.imm)
        self._leaders = frozenset(leaders)
        self._tails: Dict[Tuple[int, int, bool], Block] = {}

    def block(self, pc: int, traced: bool) -> Block:
        """Translate (and keep) the block that starts at *pc*."""
        code = len(self.instructions)
        if not 0 <= pc < code:
            raise VmError(f"pc out of range: {pc}")
        end = pc + 1
        while (end < code and end not in self._leaders
               and self.instructions[end - 1].op.fu not in _ENDS_BLOCK):
            end += 1
        block = _compile_block(self.instructions, pc, end - pc, traced)
        self.blocks[traced][pc] = block
        return block

    def tail(self, pc: int, n: int, traced: bool) -> Block:
        """The first *n* instructions of the block at *pc*."""
        key = (pc, n, traced)
        block = self._tails.get(key)
        if block is None:
            block = self._tails[key] = _compile_block(
                self.instructions, pc, n, traced)
        return block


_CACHE: "OrderedDict[Tuple, Translation]" = OrderedDict()
_LOCK = threading.Lock()


def program_key(program: Program) -> Tuple:
    """The program's content: instruction fields, entry and data."""
    return (
        program.entry_index,
        tuple((ins.op.mnemonic, ins.rd, ins.rs, ins.rt, ins.imm, ins.local)
              for ins in program.instructions),
        # repr tells 1 from 1.0 and 0.0 from -0.0, which == does not.
        repr([(item.name, item.element_size, item.values)
              for item in program.data]),
    )


def translation_for(program: Program) -> Translation:
    """The cached translation of a resolved *program*."""
    key = program_key(program)
    with _LOCK:
        hit = _CACHE.get(key)
        if hit is not None:
            _CACHE.move_to_end(key)
            return hit
    translation = Translation(program)
    with _LOCK:
        _CACHE[key] = translation
        while len(_CACHE) > CACHE_SIZE:
            _CACHE.popitem(last=False)
    return translation


def clear_cache() -> None:
    """Drop every cached translation (tests)."""
    with _LOCK:
        _CACHE.clear()
