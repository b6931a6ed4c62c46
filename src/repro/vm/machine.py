"""The interpreting virtual machine.

``Machine`` executes an assembled :class:`~repro.vm.program.Program`
and captures the dynamic instruction stream.  The implementation
follows the hot-loop idioms from the HPC guides: instructions are
pre-decoded, dispatch is a single dict lookup to a bound method, and
per-step allocations are limited to the trace record itself.

Architectural model:

- 32 integer registers (``r0`` hardwired to zero) and 32 FP registers;
- word-addressed flat memory (a dict; unwritten words read as 0);
- 64-bit two's-complement integer arithmetic;
- IEEE double floating point (Python floats).
"""

from __future__ import annotations

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import FP_REG_BASE, MEM_LOC_BASE
from repro.vm.errors import VMError
from repro.vm.program import Program
from repro.vm.trace import ColumnarTrace, DynInst, Trace

#: Initial stack pointer (word address); the stack grows downwards.
DEFAULT_STACK_TOP = 1 << 20

_MASK64 = (1 << 64) - 1
_SIGN64 = 1 << 63


def _wrap64(x: int) -> int:
    """Wrap a Python int to 64-bit two's-complement."""
    x &= _MASK64
    return x - (1 << 64) if x & _SIGN64 else x


def _shift_amount(b: int) -> int:
    return b & 63


def _srl(a: int, b: int) -> int:
    return _wrap64((a & _MASK64) >> _shift_amount(b))


#: Semantics of the table-driven opcode groups, shared by the
#: interactive dispatch (:meth:`Machine.step`) and the trace compiler
#: (:meth:`Machine.run`).
_INT_RR_FN = {
    Opcode.ADD: lambda a, b: _wrap64(a + b),
    Opcode.SUB: lambda a, b: _wrap64(a - b),
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SLL: lambda a, b: _wrap64(a << _shift_amount(b)),
    Opcode.SRL: _srl,
    Opcode.SRA: lambda a, b: a >> _shift_amount(b),
    Opcode.SLT: lambda a, b: 1 if a < b else 0,
    Opcode.SEQ: lambda a, b: 1 if a == b else 0,
    Opcode.MUL: lambda a, b: _wrap64(a * b),
}
_INT_RI_FN = {
    Opcode.ADDI: lambda a, b: _wrap64(a + b),
    Opcode.ANDI: lambda a, b: a & b,
    Opcode.ORI: lambda a, b: a | b,
    Opcode.XORI: lambda a, b: a ^ b,
    Opcode.SLLI: lambda a, b: _wrap64(a << _shift_amount(b)),
    Opcode.SRLI: _srl,
    Opcode.SRAI: lambda a, b: a >> _shift_amount(b),
    Opcode.SLTI: lambda a, b: 1 if a < b else 0,
    Opcode.MULI: lambda a, b: _wrap64(a * b),
}
_BRANCH_FN = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLT: lambda a, b: a < b,
    Opcode.BGE: lambda a, b: a >= b,
    Opcode.BLE: lambda a, b: a <= b,
    Opcode.BGT: lambda a, b: a > b,
}
_FP_RR_FN = {
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
}
_FP_CMP_FN = {
    Opcode.FEQ: lambda a, b: 1 if a == b else 0,
    Opcode.FLT: lambda a, b: 1 if a < b else 0,
    Opcode.FLE: lambda a, b: 1 if a <= b else 0,
}


class _HaltSignal(Exception):
    """Internal: unwinds the compiled run loop when HALT executes."""


class Machine:
    """Interpreter with dynamic-trace capture.

    Parameters
    ----------
    program:
        The assembled program to run.
    stack_top:
        Initial value of the stack pointer register (``sp``).
    """

    def __init__(self, program: Program, *, stack_top: int = DEFAULT_STACK_TOP):
        self.program = program
        self.regs: list[int] = [0] * 32
        self.fregs: list[float] = [0.0] * 32
        self.memory: dict[int, int | float] = dict(program.data)
        self.regs[29] = stack_top  # sp
        self.pc = program.text_labels.get("main", 0)
        self.halted = False
        self.instruction_count = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, max_instructions: int | None = None) -> ColumnarTrace:
        """Execute until HALT or the instruction budget, capturing a trace.

        The program is first *compiled*: every static instruction
        becomes a closure with its operands, latency and column sinks
        bound as locals, so the hot loop is just ``pc = execs[pc]()``
        — no dispatch lookups, no per-step record objects, no
        attribute traffic.  :meth:`step` remains the one-at-a-time
        interpreted API (and :meth:`run_rows` the row-trace one).
        """
        from array import array

        pcs: list[int] = []
        ops: list[int] = []
        lats: list[int] = []
        next_pcs: list[int] = []
        read_bounds: list[int] = [0]
        read_locs: list[int] = []
        read_vals: list = []
        write_bounds: list[int] = [0]
        write_locs: list[int] = []
        write_vals: list = []
        cols = (
            pcs.append, ops.append, lats.append, next_pcs.append,
            read_bounds.append, read_locs.append, read_vals.append,
            write_bounds.append, write_locs.append, write_vals.append,
            read_locs, write_locs,
        )

        instrs = self.program.instructions
        builders = _EXEC_BUILDERS
        execs = []
        for spc, inst in enumerate(instrs):
            build = builders.get(inst.op)
            if build is None:  # pragma: no cover - all opcodes are wired up
                raise VMError(f"unimplemented opcode {inst.op.name}", pc=spc,
                              line=inst.line)
            execs.append(build(self, inst, spc, cols))

        n_static = len(instrs)
        budget = max_instructions if max_instructions is not None else float("inf")
        count = self.instruction_count
        pc = self.pc
        if not self.halted:
            try:
                while count < budget:
                    if 0 <= pc < n_static:
                        pc = execs[pc]()
                        count += 1
                    else:
                        self.pc = pc
                        raise VMError(f"pc {pc} outside program", pc=pc)
            except _HaltSignal:
                count += 1
                pc = self.pc
            except VMError:
                self.instruction_count = count
                raise
        self.pc = pc
        self.instruction_count = count

        trace = ColumnarTrace(
            program_name=self.program.name,
            halted=self.halted,
            truncated=not self.halted,
        )
        trace.pcs = array("i", pcs)
        trace.ops = array("h", ops)
        trace.lats = array("h", lats)
        trace.next_pcs = array("i", next_pcs)
        trace.read_bounds = array("I", read_bounds)
        trace.read_locs = array("q", read_locs)
        trace.read_vals = read_vals
        trace.write_bounds = array("I", write_bounds)
        trace.write_locs = array("q", write_locs)
        trace.write_vals = write_vals
        return trace

    def run_chunks(self, max_instructions: int | None = None, *,
                   chunk_size: int | None = None):
        """Execute incrementally, yielding one columnar segment per
        ``chunk_size`` instructions (see
        :func:`repro.vm.tracestream.run_chunks`).

        Both backends resume exactly across :meth:`run` calls (the
        budget is absolute against ``instruction_count``), so the
        concatenated segments are bit-identical to a single ``run``
        with the same budget.
        """
        from repro.vm import tracestream

        return tracestream.run_chunks(
            self, max_instructions,
            chunk_size=(chunk_size if chunk_size is not None
                        else tracestream.DEFAULT_CHUNK_SIZE),
        )

    def run_to_writer(self, writer, max_instructions: int | None = None, *,
                      chunk_size: int | None = None) -> int:
        """Execute incrementally, emitting into a
        :class:`repro.vm.tracev3.TraceWriter` as chunks retire.

        Returns the number of instructions executed.  The writer's
        ``halted``/``truncated`` flags are updated from the final
        machine state; closing (footer emission) is left to the
        caller, so several segments or machines can share one file.
        """
        executed = 0
        for segment in self.run_chunks(max_instructions,
                                       chunk_size=chunk_size):
            writer.write_segment(segment)
            executed += len(segment)
        writer.halted = self.halted
        writer.truncated = not self.halted
        return executed

    def run_rows(self, max_instructions: int | None = None) -> Trace:
        """Execute via the one-at-a-time interpreter, returning the
        row-layout :class:`Trace`.

        This is the pre-compiler execution path (``step`` in a loop);
        it is kept as the differential-testing oracle for :meth:`run`
        and as the measured baseline in the engine benchmarks.
        """
        records: list[DynInst] = []
        budget = max_instructions if max_instructions is not None else float("inf")
        while not self.halted and self.instruction_count < budget:
            records.append(self.step())
        return Trace(
            instructions=records,
            program_name=self.program.name,
            halted=self.halted,
            truncated=not self.halted,
        )

    def step(self) -> DynInst:
        """Execute one instruction and return its trace record."""
        if self.halted:
            raise VMError("machine is halted", pc=self.pc)
        instrs = self.program.instructions
        if not 0 <= self.pc < len(instrs):
            raise VMError(f"pc {self.pc} outside program", pc=self.pc)
        inst = instrs[self.pc]
        handler = _DISPATCH.get(inst.op)
        if handler is None:  # pragma: no cover - all opcodes are wired up
            raise VMError(f"unimplemented opcode {inst.op.name}", pc=self.pc,
                          line=inst.line)
        reads, writes, next_pc = handler(self, inst)
        record = DynInst(self.pc, inst.op, reads, writes, inst.latency, next_pc)
        self.pc = next_pc
        self.instruction_count += 1
        return record

    def read_memory(self, addr: int) -> int | float:
        """Architectural memory read (unwritten words read as zero)."""
        return self.memory.get(addr, 0)

    def register(self, index: int) -> int:
        """Architectural integer-register read."""
        return self.regs[index]

    def fp_register(self, index: int) -> float:
        """Architectural FP-register read."""
        return self.fregs[index]

    # ------------------------------------------------------------------
    # helpers used by handlers
    # ------------------------------------------------------------------
    def _write_reg(self, idx: int, value: int):
        """Write an int register; returns the trace-write tuple or ()."""
        if idx == 0:
            return ()  # r0 is hardwired zero; the write is discarded
        self.regs[idx] = value
        return ((idx, value),)

    def _mem_addr(self, inst: Instruction) -> int:
        addr = self.regs[inst.rs1] + inst.imm
        if addr < 0:
            raise VMError(f"negative memory address {addr}", pc=self.pc,
                          line=inst.line)
        return addr

    # ------------------------------------------------------------------
    # opcode handlers: return (reads, writes, next_pc)
    # ------------------------------------------------------------------
    def _alu_rr(self, inst: Instruction, fn):
        a = self.regs[inst.rs1]
        b = self.regs[inst.rs2]
        result = fn(a, b)
        reads = ((inst.rs1, a), (inst.rs2, b))
        return reads, self._write_reg(inst.rd, result), self.pc + 1

    def _alu_ri(self, inst: Instruction, fn):
        a = self.regs[inst.rs1]
        result = fn(a, inst.imm)
        reads = ((inst.rs1, a),)
        return reads, self._write_reg(inst.rd, result), self.pc + 1

    def _branch(self, inst: Instruction, cond):
        a = self.regs[inst.rs1]
        b = self.regs[inst.rs2]
        taken = cond(a, b)
        next_pc = inst.imm if taken else self.pc + 1
        return ((inst.rs1, a), (inst.rs2, b)), (), next_pc

    def _fp_rr(self, inst: Instruction, fn):
        a = self.fregs[inst.rs1]
        b = self.fregs[inst.rs2]
        result = fn(a, b)
        self.fregs[inst.rd] = result
        reads = ((FP_REG_BASE + inst.rs1, a), (FP_REG_BASE + inst.rs2, b))
        return reads, ((FP_REG_BASE + inst.rd, result),), self.pc + 1

    def _fp_cmp(self, inst: Instruction, fn):
        a = self.fregs[inst.rs1]
        b = self.fregs[inst.rs2]
        result = fn(a, b)
        reads = ((FP_REG_BASE + inst.rs1, a), (FP_REG_BASE + inst.rs2, b))
        return reads, self._write_reg(inst.rd, result), self.pc + 1

    @staticmethod
    def _trunc_div(a: int, b: int) -> int:
        """Exact integer division truncating toward zero."""
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q

    def _op_div(self, inst: Instruction):
        a = self.regs[inst.rs1]
        b = self.regs[inst.rs2]
        if b == 0:
            raise VMError("integer division by zero", pc=self.pc, line=inst.line)
        result = _wrap64(self._trunc_div(a, b))
        reads = ((inst.rs1, a), (inst.rs2, b))
        return reads, self._write_reg(inst.rd, result), self.pc + 1

    def _op_rem(self, inst: Instruction):
        a = self.regs[inst.rs1]
        b = self.regs[inst.rs2]
        if b == 0:
            raise VMError("integer remainder by zero", pc=self.pc, line=inst.line)
        result = _wrap64(a - self._trunc_div(a, b) * b)
        reads = ((inst.rs1, a), (inst.rs2, b))
        return reads, self._write_reg(inst.rd, result), self.pc + 1

    def _op_li(self, inst: Instruction):
        return (), self._write_reg(inst.rd, int(inst.imm)), self.pc + 1

    def _op_mov(self, inst: Instruction):
        a = self.regs[inst.rs1]
        return ((inst.rs1, a),), self._write_reg(inst.rd, a), self.pc + 1

    def _op_lw(self, inst: Instruction):
        base = self.regs[inst.rs1]
        addr = self._mem_addr(inst)
        value = self.memory.get(addr, 0)
        if isinstance(value, float):
            value = int(value)
        reads = ((inst.rs1, base), (MEM_LOC_BASE + addr, value))
        return reads, self._write_reg(inst.rd, value), self.pc + 1

    def _op_sw(self, inst: Instruction):
        base = self.regs[inst.rs1]
        value = self.regs[inst.rs2]
        addr = self._mem_addr(inst)
        self.memory[addr] = value
        reads = ((inst.rs1, base), (inst.rs2, value))
        return reads, ((MEM_LOC_BASE + addr, value),), self.pc + 1

    def _op_flw(self, inst: Instruction):
        base = self.regs[inst.rs1]
        addr = self._mem_addr(inst)
        value = float(self.memory.get(addr, 0))
        self.fregs[inst.rd] = value
        reads = ((inst.rs1, base), (MEM_LOC_BASE + addr, value))
        return reads, ((FP_REG_BASE + inst.rd, value),), self.pc + 1

    def _op_fsw(self, inst: Instruction):
        base = self.regs[inst.rs1]
        value = self.fregs[inst.rs2]
        addr = self._mem_addr(inst)
        self.memory[addr] = value
        reads = ((inst.rs1, base), (FP_REG_BASE + inst.rs2, value))
        return reads, ((MEM_LOC_BASE + addr, value),), self.pc + 1

    def _op_j(self, inst: Instruction):
        return (), (), int(inst.imm)

    def _op_jal(self, inst: Instruction):
        link = self.pc + 1
        return (), self._write_reg(inst.rd, link), int(inst.imm)

    def _op_jr(self, inst: Instruction):
        a = self.regs[inst.rs1]
        return ((inst.rs1, a),), (), a

    def _op_fdiv(self, inst: Instruction):
        a = self.fregs[inst.rs1]
        b = self.fregs[inst.rs2]
        if b == 0.0:
            raise VMError("floating division by zero", pc=self.pc, line=inst.line)
        result = a / b
        self.fregs[inst.rd] = result
        reads = ((FP_REG_BASE + inst.rs1, a), (FP_REG_BASE + inst.rs2, b))
        return reads, ((FP_REG_BASE + inst.rd, result),), self.pc + 1

    def _op_fsqrt(self, inst: Instruction):
        a = self.fregs[inst.rs1]
        if a < 0.0:
            raise VMError("square root of a negative value", pc=self.pc,
                          line=inst.line)
        result = a ** 0.5
        self.fregs[inst.rd] = result
        reads = ((FP_REG_BASE + inst.rs1, a),)
        return reads, ((FP_REG_BASE + inst.rd, result),), self.pc + 1

    def _op_fneg(self, inst: Instruction):
        a = self.fregs[inst.rs1]
        result = -a
        self.fregs[inst.rd] = result
        return (((FP_REG_BASE + inst.rs1, a),),
                ((FP_REG_BASE + inst.rd, result),), self.pc + 1)

    def _op_fabs(self, inst: Instruction):
        a = self.fregs[inst.rs1]
        result = abs(a)
        self.fregs[inst.rd] = result
        return (((FP_REG_BASE + inst.rs1, a),),
                ((FP_REG_BASE + inst.rd, result),), self.pc + 1)

    def _op_fmov(self, inst: Instruction):
        a = self.fregs[inst.rs1]
        self.fregs[inst.rd] = a
        return (((FP_REG_BASE + inst.rs1, a),),
                ((FP_REG_BASE + inst.rd, a),), self.pc + 1)

    def _op_fli(self, inst: Instruction):
        value = float(inst.imm)
        self.fregs[inst.rd] = value
        return (), ((FP_REG_BASE + inst.rd, value),), self.pc + 1

    def _op_cvtif(self, inst: Instruction):
        a = self.regs[inst.rs1]
        result = float(a)
        self.fregs[inst.rd] = result
        return (((inst.rs1, a),),
                ((FP_REG_BASE + inst.rd, result),), self.pc + 1)

    def _op_cvtfi(self, inst: Instruction):
        a = self.fregs[inst.rs1]
        result = _wrap64(int(a))
        reads = ((FP_REG_BASE + inst.rs1, a),)
        return reads, self._write_reg(inst.rd, result), self.pc + 1

    def _op_nop(self, inst: Instruction):
        return (), (), self.pc + 1

    def _op_halt(self, inst: Instruction):
        self.halted = True
        return (), (), self.pc


# ----------------------------------------------------------------------
# the trace compiler: one closure per static instruction
# ----------------------------------------------------------------------
#
# Each builder receives ``(machine, inst, pc, cols)`` and returns a
# zero-argument closure that executes the instruction once: it reads
# and mutates the machine state bound into its cells, appends the trace
# record directly to the column lists, and returns the next pc.  The
# ``cols`` tuple is ``(pcs.append, ops.append, lats.append,
# next_pcs.append, read_bounds.append, read_locs.append,
# read_vals.append, write_bounds.append, write_locs.append,
# write_vals.append, read_locs, write_locs)``.
#
# The closures must stay observationally identical to the ``step()``
# handlers — same records, same state mutations, same errors — which
# the differential tests assert over every workload.

def _build_dispatch() -> dict:
    """Opcode -> ``handler(machine, inst)`` for :meth:`Machine.step`.

    Shared by every machine: a per-machine table of bound handlers would
    be a reference cycle, keeping a dropped machine (and everything it
    holds) alive until the next full garbage collection.
    """
    table = {}
    for op, fn in _INT_RR_FN.items():
        table[op] = (lambda m, inst, f=fn: m._alu_rr(inst, f))
    for op, fn in _INT_RI_FN.items():
        table[op] = (lambda m, inst, f=fn: m._alu_ri(inst, f))
    for op, fn in _BRANCH_FN.items():
        table[op] = (lambda m, inst, f=fn: m._branch(inst, f))
    for op, fn in _FP_RR_FN.items():
        table[op] = (lambda m, inst, f=fn: m._fp_rr(inst, f))
    for op, fn in _FP_CMP_FN.items():
        table[op] = (lambda m, inst, f=fn: m._fp_cmp(inst, f))
    table[Opcode.DIV] = Machine._op_div
    table[Opcode.REM] = Machine._op_rem
    table[Opcode.LI] = Machine._op_li
    table[Opcode.MOV] = Machine._op_mov
    table[Opcode.LW] = Machine._op_lw
    table[Opcode.SW] = Machine._op_sw
    table[Opcode.FLW] = Machine._op_flw
    table[Opcode.FSW] = Machine._op_fsw
    table[Opcode.J] = Machine._op_j
    table[Opcode.JAL] = Machine._op_jal
    table[Opcode.JR] = Machine._op_jr
    table[Opcode.FDIV] = Machine._op_fdiv
    table[Opcode.FSQRT] = Machine._op_fsqrt
    table[Opcode.FNEG] = Machine._op_fneg
    table[Opcode.FABS] = Machine._op_fabs
    table[Opcode.FMOV] = Machine._op_fmov
    table[Opcode.FLI] = Machine._op_fli
    table[Opcode.CVTIF] = Machine._op_cvtif
    table[Opcode.CVTFI] = Machine._op_cvtfi
    table[Opcode.NOP] = Machine._op_nop
    table[Opcode.HALT] = Machine._op_halt
    return table


_DISPATCH = _build_dispatch()


def _mk_int_rr(fn):
    def build(m, inst, pc, cols):
        P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
        regs = m.regs
        rd = inst.rd
        rs1 = inst.rs1
        rs2 = inst.rs2
        opi = int(inst.op)
        lat = inst.latency
        npc = pc + 1
        if rd:
            def ex():
                a = regs[rs1]
                b = regs[rs2]
                r = fn(a, b)
                regs[rd] = r
                P(pc)
                O(opi)
                L(lat)
                N(npc)
                RL(rs1)
                RV(a)
                RL(rs2)
                RV(b)
                RB(len(rlocs))
                WL(rd)
                WV(r)
                WB(len(wlocs))
                return npc
        else:
            def ex():  # r0 destination: the write is discarded
                a = regs[rs1]
                b = regs[rs2]
                fn(a, b)
                P(pc)
                O(opi)
                L(lat)
                N(npc)
                RL(rs1)
                RV(a)
                RL(rs2)
                RV(b)
                RB(len(rlocs))
                WB(len(wlocs))
                return npc
        return ex
    return build


def _mk_int_ri(fn):
    def build(m, inst, pc, cols):
        P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
        regs = m.regs
        rd = inst.rd
        rs1 = inst.rs1
        imm = inst.imm
        opi = int(inst.op)
        lat = inst.latency
        npc = pc + 1
        if rd:
            def ex():
                a = regs[rs1]
                r = fn(a, imm)
                regs[rd] = r
                P(pc)
                O(opi)
                L(lat)
                N(npc)
                RL(rs1)
                RV(a)
                RB(len(rlocs))
                WL(rd)
                WV(r)
                WB(len(wlocs))
                return npc
        else:
            def ex():
                a = regs[rs1]
                fn(a, imm)
                P(pc)
                O(opi)
                L(lat)
                N(npc)
                RL(rs1)
                RV(a)
                RB(len(rlocs))
                WB(len(wlocs))
                return npc
        return ex
    return build


def _mk_branch(fn):
    def build(m, inst, pc, cols):
        P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
        regs = m.regs
        rs1 = inst.rs1
        rs2 = inst.rs2
        target = inst.imm
        opi = int(inst.op)
        lat = inst.latency
        npc = pc + 1

        def ex():
            a = regs[rs1]
            b = regs[rs2]
            n2 = target if fn(a, b) else npc
            P(pc)
            O(opi)
            L(lat)
            N(n2)
            RL(rs1)
            RV(a)
            RL(rs2)
            RV(b)
            RB(len(rlocs))
            WB(len(wlocs))
            return n2
        return ex
    return build


def _mk_fp_rr(fn):
    def build(m, inst, pc, cols):
        P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
        fregs = m.fregs
        rd = inst.rd
        rs1 = inst.rs1
        rs2 = inst.rs2
        frd = FP_REG_BASE + rd
        frs1 = FP_REG_BASE + rs1
        frs2 = FP_REG_BASE + rs2
        opi = int(inst.op)
        lat = inst.latency
        npc = pc + 1

        def ex():
            a = fregs[rs1]
            b = fregs[rs2]
            r = fn(a, b)
            fregs[rd] = r
            P(pc)
            O(opi)
            L(lat)
            N(npc)
            RL(frs1)
            RV(a)
            RL(frs2)
            RV(b)
            RB(len(rlocs))
            WL(frd)
            WV(r)
            WB(len(wlocs))
            return npc
        return ex
    return build


def _mk_fp_cmp(fn):
    def build(m, inst, pc, cols):
        P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
        regs = m.regs
        fregs = m.fregs
        rd = inst.rd
        rs1 = inst.rs1
        rs2 = inst.rs2
        frs1 = FP_REG_BASE + rs1
        frs2 = FP_REG_BASE + rs2
        opi = int(inst.op)
        lat = inst.latency
        npc = pc + 1

        def ex():
            a = fregs[rs1]
            b = fregs[rs2]
            r = fn(a, b)
            P(pc)
            O(opi)
            L(lat)
            N(npc)
            RL(frs1)
            RV(a)
            RL(frs2)
            RV(b)
            RB(len(rlocs))
            if rd:
                regs[rd] = r
                WL(rd)
                WV(r)
            WB(len(wlocs))
            return npc
        return ex
    return build


def _build_div(m, inst, pc, cols):
    P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
    regs = m.regs
    rd = inst.rd
    rs1 = inst.rs1
    rs2 = inst.rs2
    line = inst.line
    opi = int(inst.op)
    lat = inst.latency
    npc = pc + 1
    trunc = Machine._trunc_div
    rem = inst.op is Opcode.REM

    def ex():
        a = regs[rs1]
        b = regs[rs2]
        if b == 0:
            m.pc = pc
            kind = "remainder" if rem else "division"
            raise VMError(f"integer {kind} by zero", pc=pc, line=line)
        q = trunc(a, b)
        r = _wrap64(a - q * b) if rem else _wrap64(q)
        P(pc)
        O(opi)
        L(lat)
        N(npc)
        RL(rs1)
        RV(a)
        RL(rs2)
        RV(b)
        RB(len(rlocs))
        if rd:
            regs[rd] = r
            WL(rd)
            WV(r)
        WB(len(wlocs))
        return npc
    return ex


def _build_li(m, inst, pc, cols):
    P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
    regs = m.regs
    rd = inst.rd
    value = int(inst.imm)
    opi = int(inst.op)
    lat = inst.latency
    npc = pc + 1

    def ex():
        P(pc)
        O(opi)
        L(lat)
        N(npc)
        RB(len(rlocs))
        if rd:
            regs[rd] = value
            WL(rd)
            WV(value)
        WB(len(wlocs))
        return npc
    return ex


def _build_mov(m, inst, pc, cols):
    P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
    regs = m.regs
    rd = inst.rd
    rs1 = inst.rs1
    opi = int(inst.op)
    lat = inst.latency
    npc = pc + 1

    def ex():
        a = regs[rs1]
        P(pc)
        O(opi)
        L(lat)
        N(npc)
        RL(rs1)
        RV(a)
        RB(len(rlocs))
        if rd:
            regs[rd] = a
            WL(rd)
            WV(a)
        WB(len(wlocs))
        return npc
    return ex


def _build_lw(m, inst, pc, cols):
    P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
    regs = m.regs
    mem_get = m.memory.get
    rd = inst.rd
    rs1 = inst.rs1
    imm = inst.imm
    line = inst.line
    opi = int(inst.op)
    lat = inst.latency
    npc = pc + 1

    def ex():
        base = regs[rs1]
        addr = base + imm
        if addr < 0:
            m.pc = pc
            raise VMError(f"negative memory address {addr}", pc=pc, line=line)
        v = mem_get(addr, 0)
        if isinstance(v, float):
            v = int(v)
        P(pc)
        O(opi)
        L(lat)
        N(npc)
        RL(rs1)
        RV(base)
        RL(MEM_LOC_BASE + addr)
        RV(v)
        RB(len(rlocs))
        if rd:
            regs[rd] = v
            WL(rd)
            WV(v)
        WB(len(wlocs))
        return npc
    return ex


def _build_sw(m, inst, pc, cols):
    P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
    regs = m.regs
    memory = m.memory
    rs1 = inst.rs1
    rs2 = inst.rs2
    imm = inst.imm
    line = inst.line
    opi = int(inst.op)
    lat = inst.latency
    npc = pc + 1

    def ex():
        base = regs[rs1]
        addr = base + imm
        if addr < 0:
            m.pc = pc
            raise VMError(f"negative memory address {addr}", pc=pc, line=line)
        v = regs[rs2]
        memory[addr] = v
        P(pc)
        O(opi)
        L(lat)
        N(npc)
        RL(rs1)
        RV(base)
        RL(rs2)
        RV(v)
        RB(len(rlocs))
        WL(MEM_LOC_BASE + addr)
        WV(v)
        WB(len(wlocs))
        return npc
    return ex


def _build_flw(m, inst, pc, cols):
    P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
    regs = m.regs
    fregs = m.fregs
    mem_get = m.memory.get
    rd = inst.rd
    frd = FP_REG_BASE + rd
    rs1 = inst.rs1
    imm = inst.imm
    line = inst.line
    opi = int(inst.op)
    lat = inst.latency
    npc = pc + 1

    def ex():
        base = regs[rs1]
        addr = base + imm
        if addr < 0:
            m.pc = pc
            raise VMError(f"negative memory address {addr}", pc=pc, line=line)
        v = float(mem_get(addr, 0))
        fregs[rd] = v
        P(pc)
        O(opi)
        L(lat)
        N(npc)
        RL(rs1)
        RV(base)
        RL(MEM_LOC_BASE + addr)
        RV(v)
        RB(len(rlocs))
        WL(frd)
        WV(v)
        WB(len(wlocs))
        return npc
    return ex


def _build_fsw(m, inst, pc, cols):
    P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
    regs = m.regs
    fregs = m.fregs
    memory = m.memory
    rs1 = inst.rs1
    rs2 = inst.rs2
    frs2 = FP_REG_BASE + rs2
    imm = inst.imm
    line = inst.line
    opi = int(inst.op)
    lat = inst.latency
    npc = pc + 1

    def ex():
        base = regs[rs1]
        addr = base + imm
        if addr < 0:
            m.pc = pc
            raise VMError(f"negative memory address {addr}", pc=pc, line=line)
        v = fregs[rs2]
        memory[addr] = v
        P(pc)
        O(opi)
        L(lat)
        N(npc)
        RL(rs1)
        RV(base)
        RL(frs2)
        RV(v)
        RB(len(rlocs))
        WL(MEM_LOC_BASE + addr)
        WV(v)
        WB(len(wlocs))
        return npc
    return ex


def _build_j(m, inst, pc, cols):
    P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
    target = int(inst.imm)
    opi = int(inst.op)
    lat = inst.latency

    def ex():
        P(pc)
        O(opi)
        L(lat)
        N(target)
        RB(len(rlocs))
        WB(len(wlocs))
        return target
    return ex


def _build_jal(m, inst, pc, cols):
    P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
    regs = m.regs
    rd = inst.rd
    target = int(inst.imm)
    link = pc + 1
    opi = int(inst.op)
    lat = inst.latency

    def ex():
        P(pc)
        O(opi)
        L(lat)
        N(target)
        RB(len(rlocs))
        if rd:
            regs[rd] = link
            WL(rd)
            WV(link)
        WB(len(wlocs))
        return target
    return ex


def _build_jr(m, inst, pc, cols):
    P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
    regs = m.regs
    rs1 = inst.rs1
    opi = int(inst.op)
    lat = inst.latency

    def ex():
        a = regs[rs1]
        P(pc)
        O(opi)
        L(lat)
        N(a)
        RL(rs1)
        RV(a)
        RB(len(rlocs))
        WB(len(wlocs))
        return a
    return ex


def _build_fdiv(m, inst, pc, cols):
    P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
    fregs = m.fregs
    rd = inst.rd
    rs1 = inst.rs1
    rs2 = inst.rs2
    frd = FP_REG_BASE + rd
    frs1 = FP_REG_BASE + rs1
    frs2 = FP_REG_BASE + rs2
    line = inst.line
    opi = int(inst.op)
    lat = inst.latency
    npc = pc + 1

    def ex():
        a = fregs[rs1]
        b = fregs[rs2]
        if b == 0.0:
            m.pc = pc
            raise VMError("floating division by zero", pc=pc, line=line)
        r = a / b
        fregs[rd] = r
        P(pc)
        O(opi)
        L(lat)
        N(npc)
        RL(frs1)
        RV(a)
        RL(frs2)
        RV(b)
        RB(len(rlocs))
        WL(frd)
        WV(r)
        WB(len(wlocs))
        return npc
    return ex


def _build_fsqrt(m, inst, pc, cols):
    P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
    fregs = m.fregs
    rd = inst.rd
    rs1 = inst.rs1
    frd = FP_REG_BASE + rd
    frs1 = FP_REG_BASE + rs1
    line = inst.line
    opi = int(inst.op)
    lat = inst.latency
    npc = pc + 1

    def ex():
        a = fregs[rs1]
        if a < 0.0:
            m.pc = pc
            raise VMError("square root of a negative value", pc=pc, line=line)
        r = a ** 0.5
        fregs[rd] = r
        P(pc)
        O(opi)
        L(lat)
        N(npc)
        RL(frs1)
        RV(a)
        RB(len(rlocs))
        WL(frd)
        WV(r)
        WB(len(wlocs))
        return npc
    return ex


def _mk_fp_unary(fn):
    def build(m, inst, pc, cols):
        P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
        fregs = m.fregs
        rd = inst.rd
        rs1 = inst.rs1
        frd = FP_REG_BASE + rd
        frs1 = FP_REG_BASE + rs1
        opi = int(inst.op)
        lat = inst.latency
        npc = pc + 1

        def ex():
            a = fregs[rs1]
            r = fn(a)
            fregs[rd] = r
            P(pc)
            O(opi)
            L(lat)
            N(npc)
            RL(frs1)
            RV(a)
            RB(len(rlocs))
            WL(frd)
            WV(r)
            WB(len(wlocs))
            return npc
        return ex
    return build


def _build_fli(m, inst, pc, cols):
    P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
    fregs = m.fregs
    rd = inst.rd
    frd = FP_REG_BASE + rd
    value = float(inst.imm)
    opi = int(inst.op)
    lat = inst.latency
    npc = pc + 1

    def ex():
        fregs[rd] = value
        P(pc)
        O(opi)
        L(lat)
        N(npc)
        RB(len(rlocs))
        WL(frd)
        WV(value)
        WB(len(wlocs))
        return npc
    return ex


def _build_cvtif(m, inst, pc, cols):
    P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
    regs = m.regs
    fregs = m.fregs
    rd = inst.rd
    rs1 = inst.rs1
    frd = FP_REG_BASE + rd
    opi = int(inst.op)
    lat = inst.latency
    npc = pc + 1

    def ex():
        a = regs[rs1]
        r = float(a)
        fregs[rd] = r
        P(pc)
        O(opi)
        L(lat)
        N(npc)
        RL(rs1)
        RV(a)
        RB(len(rlocs))
        WL(frd)
        WV(r)
        WB(len(wlocs))
        return npc
    return ex


def _build_cvtfi(m, inst, pc, cols):
    P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
    regs = m.regs
    fregs = m.fregs
    rd = inst.rd
    rs1 = inst.rs1
    frs1 = FP_REG_BASE + rs1
    opi = int(inst.op)
    lat = inst.latency
    npc = pc + 1

    def ex():
        a = fregs[rs1]
        r = _wrap64(int(a))
        P(pc)
        O(opi)
        L(lat)
        N(npc)
        RL(frs1)
        RV(a)
        RB(len(rlocs))
        if rd:
            regs[rd] = r
            WL(rd)
            WV(r)
        WB(len(wlocs))
        return npc
    return ex


def _build_nop(m, inst, pc, cols):
    P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
    opi = int(inst.op)
    lat = inst.latency
    npc = pc + 1

    def ex():
        P(pc)
        O(opi)
        L(lat)
        N(npc)
        RB(len(rlocs))
        WB(len(wlocs))
        return npc
    return ex


def _build_halt(m, inst, pc, cols):
    P, O, L, N, RB, RL, RV, WB, WL, WV, rlocs, wlocs = cols
    opi = int(inst.op)
    lat = inst.latency

    def ex():
        m.halted = True
        m.pc = pc
        P(pc)
        O(opi)
        L(lat)
        N(pc)
        RB(len(rlocs))
        WB(len(wlocs))
        raise _HaltSignal
    return ex


_EXEC_BUILDERS: dict[Opcode, object] = {}
for _op, _fn in _INT_RR_FN.items():
    _EXEC_BUILDERS[_op] = _mk_int_rr(_fn)
for _op, _fn in _INT_RI_FN.items():
    _EXEC_BUILDERS[_op] = _mk_int_ri(_fn)
for _op, _fn in _BRANCH_FN.items():
    _EXEC_BUILDERS[_op] = _mk_branch(_fn)
for _op, _fn in _FP_RR_FN.items():
    _EXEC_BUILDERS[_op] = _mk_fp_rr(_fn)
for _op, _fn in _FP_CMP_FN.items():
    _EXEC_BUILDERS[_op] = _mk_fp_cmp(_fn)
_EXEC_BUILDERS[Opcode.DIV] = _build_div
_EXEC_BUILDERS[Opcode.REM] = _build_div
_EXEC_BUILDERS[Opcode.LI] = _build_li
_EXEC_BUILDERS[Opcode.MOV] = _build_mov
_EXEC_BUILDERS[Opcode.LW] = _build_lw
_EXEC_BUILDERS[Opcode.SW] = _build_sw
_EXEC_BUILDERS[Opcode.FLW] = _build_flw
_EXEC_BUILDERS[Opcode.FSW] = _build_fsw
_EXEC_BUILDERS[Opcode.J] = _build_j
_EXEC_BUILDERS[Opcode.JAL] = _build_jal
_EXEC_BUILDERS[Opcode.JR] = _build_jr
_EXEC_BUILDERS[Opcode.FDIV] = _build_fdiv
_EXEC_BUILDERS[Opcode.FSQRT] = _build_fsqrt
_EXEC_BUILDERS[Opcode.FNEG] = _mk_fp_unary(lambda a: -a)
_EXEC_BUILDERS[Opcode.FABS] = _mk_fp_unary(abs)
_EXEC_BUILDERS[Opcode.FMOV] = _mk_fp_unary(lambda a: a)
_EXEC_BUILDERS[Opcode.FLI] = _build_fli
_EXEC_BUILDERS[Opcode.CVTIF] = _build_cvtif
_EXEC_BUILDERS[Opcode.CVTFI] = _build_cvtfi
_EXEC_BUILDERS[Opcode.NOP] = _build_nop
_EXEC_BUILDERS[Opcode.HALT] = _build_halt


def run_source(source: str, *, name: str = "<anonymous>",
               max_instructions: int | None = None) -> ColumnarTrace:
    """Assemble and run source text in one call (convenience for tests)."""
    from repro.vm.assembler import assemble

    machine = Machine(assemble(source, name=name))
    return machine.run(max_instructions=max_instructions)
