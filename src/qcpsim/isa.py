"""Timed quantum assembly: instruction model, text grammar, binary encoding.

Quantum instructions carry a timing label: the clock-cycle interval between
the issue of this operation and the issue of the previous quantum
instruction's operation (label 0 means "simultaneous with the previous one").
Classical instructions carry no label; their cost is a property of the
processor model, not of the ISA.
"""

from __future__ import annotations

import json
import math
import re
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import IntEnum

__all__ = [
    "Kind", "Gate", "ClassicalOp", "BranchCond", "Instruction", "BlockDirective",
    "Program", "Diagnostic", "ParseError", "EncodingError",
    "REGISTER_COUNT", "MAX_QUBITS", "MAX_BLOCKS", "BINARY_MAGIC",
    "quantize_angle", "parse_program", "print_program",
    "encode_instruction", "decode_instruction",
    "encode_program", "decode_program", "validate_program",
]

REGISTER_COUNT = 32   # general registers per core; also measurement-result registers
MAX_QUBITS = 64       # qubit index field is 6 bits wide
MAX_BLOCKS = 64       # block information table capacity
MAX_TIMING_LABEL = (1 << 10) - 1
ANGLE_STEPS = 1024    # angles are quantized to 1/1024 of a turn
BINARY_MAGIC = b"QAPE0001"

_TWO_PI = 2.0 * math.pi


class Kind(IntEnum):
    QUANTUM = 0
    CLASSICAL = 1
    MRCE = 2
    END_BLOCK = 3


class Gate(IntEnum):
    """Gate kinds; NOP is only legal as a conditional-execution operand."""

    NOP = 0
    X = 1
    Y = 2
    Z = 3
    H = 4
    RX = 5
    RY = 6
    RZ = 7
    CNOT = 8
    CZ = 9
    MEAS = 10


ROTATION_GATES = frozenset({Gate.RX, Gate.RY, Gate.RZ})
TWO_QUBIT_GATES = frozenset({Gate.CNOT, Gate.CZ})
SINGLE_QUBIT_GATES = frozenset({Gate.X, Gate.Y, Gate.Z, Gate.H}) | ROTATION_GATES
# operand set for conditional execution: plain single-qubit gates or NOP
MRCE_OPS = frozenset({Gate.NOP, Gate.X, Gate.Y, Gate.Z, Gate.H})


class ClassicalOp(IntEnum):
    LDI = 0
    MOV = 1
    ADD = 2
    SUB = 3
    AND = 4
    OR = 5
    CMP = 6
    BR = 7
    JMP = 8
    FMR = 9


class BranchCond(IntEnum):
    EQ = 0
    NE = 1
    LT = 2
    LE = 3
    GT = 4
    GE = 5


# ── Binary layout ───────────────────────────────────────────────────
#
# Every instruction is one 32-bit word with the opcode in bits [31:26].
#
#   quantum single  op | label[25:16] | q[15:10]  | angle[9:0]
#   quantum pair    op | label[25:16] | q0[15:10] | q1[9:4]
#   measurement     op | label[25:16] | q[15:10]  | rr[9:5]
#   LDI             op | rd[25:21] | imm[20:0]           (two's complement)
#   MOV             op | rd[25:21] | rs[20:16]
#   ADD/SUB/AND/OR  op | rd[25:21] | ra[20:16] | rb[15:11]
#   CMP             op | ra[25:21] | rb[20:16]
#   BR              op | cond[25:22] | target[21:0]
#   JMP             op | target[21:0]
#   FMR             op | rd[25:21] | rr[20:16]
#   MRCE            op | rr[25:20] | q[19:14] | op0[13:7] | op1[6:0]
#   END             op
#
# Only the conditional-execution layout is fixed by the hardware contract;
# the rest is this simulator's own packing.

_OPC_Q_BASE = 1          # opcodes 1..10 mirror Gate values
_OPC_C_BASE = 16         # opcodes 16..25 mirror ClassicalOp values
_OPC_MRCE = 32
_OPC_END = 63

_IMM_BITS = 21
_IMM_MIN = -(1 << (_IMM_BITS - 1))
_IMM_MAX = (1 << (_IMM_BITS - 1)) - 1
_TARGET_MAX = (1 << 22) - 1


class ParseError(ValueError):
    """Raised on malformed assembly text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EncodingError(ValueError):
    """Raised when an instruction field does not fit its binary width."""


def quantize_angle(radians: float) -> float:
    """Snap an angle to the 1/1024-turn grid used by the binary encoding."""
    step = round(radians / _TWO_PI * ANGLE_STEPS) % ANGLE_STEPS
    return step * _TWO_PI / ANGLE_STEPS


@dataclass(eq=True)
class Instruction:
    """One instruction word; which fields are meaningful depends on `kind`."""

    kind: Kind
    timing_label: int = 0                      # quantum only
    gate: Gate = Gate.NOP                      # quantum only
    angle: float = 0.0                         # RX/RY/RZ only, radians on grid
    qubits: tuple[int, ...] = ()               # quantum only
    result_reg: int = 0                        # MEAS destination / MRCE source
    classical_op: ClassicalOp | None = None
    rd: int = 0                                # classical destination
    ra: int = 0                                # classical source A
    rb: int = 0                                # classical source B
    imm: int = 0                               # LDI immediate
    cond: BranchCond = BranchCond.EQ           # BR condition
    target: int = 0                            # BR/JMP word address
    mrce_target: int = 0                       # conditioned qubit
    mrce_op0: Gate = Gate.NOP                  # applied on result 0
    mrce_op1: Gate = Gate.NOP                  # applied on result 1
    src_line: int = field(default=0, compare=False)

    @property
    def is_quantum(self) -> bool:
        return self.kind == Kind.QUANTUM

    @property
    def is_classical(self) -> bool:
        return self.kind == Kind.CLASSICAL

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{format_instruction(self)}>"


@dataclass(eq=True)
class BlockDirective:
    """Declared program block: a PC range plus its dependency specification."""

    name: str
    pc_start: int
    pc_end: int
    deps: tuple[str, ...] | None = None   # direct representation
    priority: int | None = None           # priority representation
    src_line: int = field(default=0, compare=False)


@dataclass(eq=True)
class Program:
    instructions: list[Instruction]
    block_directives: list[BlockDirective]
    qubit_count: int

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass(frozen=True)
class Diagnostic:
    """One static-check finding; `where` is a source line or a PC."""

    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.where}: {self.message}"


# ── Parsing ─────────────────────────────────────────────────────────

_QUBIT_RE = re.compile(r"^q(\d+)$")
_REG_RE = re.compile(r"^r(\d+)$")
_LABEL_DEF_RE = re.compile(r"^([A-Za-z_][\w.]*):$")
_NAME_RE = re.compile(r"^[A-Za-z_][\w.]*$")

_GATE_MNEMONICS = {g.name: g for g in Gate if g != Gate.NOP}
_CLASSICAL_MNEMONICS = {op.name: op for op in ClassicalOp}
_COND_NAMES = {c.name.lower(): c for c in BranchCond}


def _parse_qubit(tok: str, line_no: int) -> int:
    m = _QUBIT_RE.match(tok)
    if not m:
        raise ParseError(line_no, f"expected qubit operand, got {tok!r}")
    return int(m.group(1))


def _parse_reg(tok: str, line_no: int) -> int:
    m = _REG_RE.match(tok)
    if not m:
        raise ParseError(line_no, f"expected register operand, got {tok!r}")
    idx = int(m.group(1))
    if idx >= REGISTER_COUNT:
        raise ParseError(line_no, f"register index {idx} out of range")
    return idx


def _split_operands(rest: str) -> list[str]:
    rest = rest.replace("->", ",")
    return [t.strip() for t in rest.split(",") if t.strip()]


def _parse_quantum(label: int, mnemonic: str, ops: list[str], line_no: int) -> Instruction:
    gate = _GATE_MNEMONICS[mnemonic]
    if gate in TWO_QUBIT_GATES:
        if len(ops) != 2:
            raise ParseError(line_no, f"{mnemonic} takes two qubits")
        q = (_parse_qubit(ops[0], line_no), _parse_qubit(ops[1], line_no))
        if q[0] == q[1]:
            raise ParseError(line_no, f"{mnemonic} qubits must be distinct")
        return Instruction(Kind.QUANTUM, timing_label=label, gate=gate, qubits=q,
                           src_line=line_no)
    if gate == Gate.MEAS:
        if len(ops) != 2:
            raise ParseError(line_no, "MEAS needs a qubit and a result register")
        return Instruction(Kind.QUANTUM, timing_label=label, gate=gate,
                           qubits=(_parse_qubit(ops[0], line_no),),
                           result_reg=_parse_reg(ops[1], line_no), src_line=line_no)
    if gate in ROTATION_GATES:
        if len(ops) != 2:
            raise ParseError(line_no, f"{mnemonic} needs a qubit and an angle")
        try:
            angle = float(ops[1])
        except ValueError:
            raise ParseError(line_no, f"bad angle {ops[1]!r}") from None
        return Instruction(Kind.QUANTUM, timing_label=label, gate=gate,
                           qubits=(_parse_qubit(ops[0], line_no),),
                           angle=quantize_angle(angle), src_line=line_no)
    if len(ops) != 1:
        raise ParseError(line_no, f"{mnemonic} takes one qubit")
    return Instruction(Kind.QUANTUM, timing_label=label, gate=gate,
                       qubits=(_parse_qubit(ops[0], line_no),), src_line=line_no)


def _parse_classical(mnemonic: str, ops: list[str], line_no: int,
                     pending_targets: list[tuple[int, str, int]],
                     pc: int) -> Instruction:
    if mnemonic == "MRCE":
        if len(ops) != 4:
            raise ParseError(line_no, "MRCE takes result reg, qubit, op0, op1")
        op0, op1 = ops[2].upper(), ops[3].upper()
        for name in (op0, op1):
            if name not in Gate.__members__ or Gate[name] not in MRCE_OPS:
                raise ParseError(line_no, f"{name} is not a conditional-exec op")
        return Instruction(Kind.MRCE, result_reg=_parse_reg(ops[0], line_no),
                           mrce_target=_parse_qubit(ops[1], line_no),
                           mrce_op0=Gate[op0], mrce_op1=Gate[op1], src_line=line_no)
    if mnemonic == "END":
        if ops:
            raise ParseError(line_no, "END takes no operands")
        return Instruction(Kind.END_BLOCK, src_line=line_no)

    base = mnemonic.split(".")[0]
    op = _CLASSICAL_MNEMONICS[base]
    ins = Instruction(Kind.CLASSICAL, classical_op=op, src_line=line_no)
    if op == ClassicalOp.LDI:
        if len(ops) != 2:
            raise ParseError(line_no, "LDI takes a register and an immediate")
        ins.rd = _parse_reg(ops[0], line_no)
        try:
            ins.imm = int(ops[1], 0)
        except ValueError:
            raise ParseError(line_no, f"bad immediate {ops[1]!r}") from None
    elif op == ClassicalOp.MOV:
        if len(ops) != 2:
            raise ParseError(line_no, "MOV takes two registers")
        ins.rd, ins.ra = _parse_reg(ops[0], line_no), _parse_reg(ops[1], line_no)
    elif op in (ClassicalOp.ADD, ClassicalOp.SUB, ClassicalOp.AND, ClassicalOp.OR):
        if len(ops) != 3:
            raise ParseError(line_no, f"{base} takes three registers")
        ins.rd = _parse_reg(ops[0], line_no)
        ins.ra = _parse_reg(ops[1], line_no)
        ins.rb = _parse_reg(ops[2], line_no)
    elif op == ClassicalOp.CMP:
        if len(ops) != 2:
            raise ParseError(line_no, "CMP takes two registers")
        ins.ra, ins.rb = _parse_reg(ops[0], line_no), _parse_reg(ops[1], line_no)
    elif op == ClassicalOp.FMR:
        if len(ops) != 2:
            raise ParseError(line_no, "FMR takes a destination and a result register")
        ins.rd, ins.result_reg = _parse_reg(ops[0], line_no), _parse_reg(ops[1], line_no)
    elif op in (ClassicalOp.BR, ClassicalOp.JMP):
        if op == ClassicalOp.BR:
            parts = mnemonic.split(".")
            if len(parts) != 2 or parts[1].lower() not in _COND_NAMES:
                raise ParseError(line_no, f"bad branch condition in {mnemonic!r}")
            ins.cond = _COND_NAMES[parts[1].lower()]
        if len(ops) != 1:
            raise ParseError(line_no, f"{base} takes one target")
        tok = ops[0]
        if tok.lstrip("-").isdigit():
            ins.target = int(tok)
        elif _NAME_RE.match(tok):
            pending_targets.append((pc, tok, line_no))
        else:
            raise ParseError(line_no, f"bad branch target {tok!r}")
    return ins


def parse_program(text: str) -> Program:
    """Parse assembly source into a Program.

    One instruction or directive per line; `#` starts a comment. Quantum
    lines are `<label> <MNEMONIC> <operands>`; classical lines have no
    label. `.qubits <n>` sets the qubit count, `.block` declares a program
    block, and `name:` defines a branch-target label.
    """
    instructions: list[Instruction] = []
    directives: list[BlockDirective] = []
    labels: dict[str, int] = {}
    pending_targets: list[tuple[int, str, int]] = []
    qubit_count: int | None = None
    dep_style: str | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        m = _LABEL_DEF_RE.match(line)
        if m:
            name = m.group(1)
            if name in labels:
                raise ParseError(line_no, f"duplicate label {name!r}")
            labels[name] = len(instructions)
            continue

        if line.startswith(".qubits"):
            try:
                qubit_count = int(line.split()[1])
            except (IndexError, ValueError):
                raise ParseError(line_no, "bad .qubits directive") from None
            continue

        if line.startswith(".block"):
            directive = _parse_block_directive(line, line_no)
            if directive.priority is not None:
                style = "priority"
            else:
                style = "direct"
            if dep_style is None:
                dep_style = style
            elif dep_style != style:
                raise ParseError(line_no, "mixed deps/prio styles in one program")
            directives.append(directive)
            continue

        tokens = line.split(None, 1)
        head = tokens[0]
        if head.lstrip("-").isdigit():
            label = int(head)
            if label < 0:
                raise ParseError(line_no, "timing label must be nonnegative")
            if label > MAX_TIMING_LABEL:
                raise ParseError(line_no, f"timing label {label} too large")
            if len(tokens) < 2:
                raise ParseError(line_no, "timing label without an instruction")
            body = tokens[1].split(None, 1)
            mnemonic = body[0].upper()
            if mnemonic not in _GATE_MNEMONICS:
                raise ParseError(line_no, f"unknown quantum mnemonic {mnemonic!r}")
            ops = _split_operands(body[1]) if len(body) > 1 else []
            instructions.append(_parse_quantum(label, mnemonic, ops, line_no))
        else:
            mnemonic = head.upper()
            base = mnemonic.split(".")[0]
            if base not in _CLASSICAL_MNEMONICS and mnemonic not in ("MRCE", "END"):
                raise ParseError(line_no, f"unknown mnemonic {mnemonic!r}")
            ops = _split_operands(tokens[1]) if len(tokens) > 1 else []
            instructions.append(
                _parse_classical(mnemonic, ops, line_no, pending_targets,
                                 len(instructions)))

    for pc, name, line_no in pending_targets:
        if name not in labels:
            raise ParseError(line_no, f"dangling branch target {name!r}")
        instructions[pc].target = labels[name]

    if qubit_count is None:
        qubit_count = _infer_qubit_count(instructions)
    return Program(instructions, directives, qubit_count)


def _parse_block_directive(line: str, line_no: int) -> BlockDirective:
    tokens = line.split()
    if len(tokens) < 2:
        raise ParseError(line_no, "bad .block directive")
    name = tokens[1]
    fields: dict[str, str] = {}
    for tok in tokens[2:]:
        if "=" not in tok:
            raise ParseError(line_no, f"bad .block field {tok!r}")
        key, value = tok.split("=", 1)
        fields[key] = value
    try:
        pc_start = int(fields["start"])
        pc_end = int(fields["end"])
    except (KeyError, ValueError):
        raise ParseError(line_no, ".block needs start=<pc> end=<pc>") from None
    if "deps" in fields and "prio" in fields:
        raise ParseError(line_no, ".block cannot mix deps and prio")
    if "prio" in fields:
        try:
            prio = int(fields["prio"])
        except ValueError:
            raise ParseError(line_no, "bad priority value") from None
        if prio < 0:
            raise ParseError(line_no, "priority must be nonnegative")
        return BlockDirective(name, pc_start, pc_end, priority=prio, src_line=line_no)
    deps_field = fields.get("deps", "none")
    deps = () if deps_field.lower() == "none" else tuple(deps_field.split("+"))
    return BlockDirective(name, pc_start, pc_end, deps=deps, src_line=line_no)


def _infer_qubit_count(instructions: list[Instruction]) -> int:
    highest = -1
    for ins in instructions:
        for q in ins.qubits:
            highest = max(highest, q)
        if ins.kind == Kind.MRCE:
            highest = max(highest, ins.mrce_target)
    return highest + 1


# ── Printing ────────────────────────────────────────────────────────

def format_instruction(ins: Instruction) -> str:
    if ins.kind == Kind.QUANTUM:
        g = ins.gate
        if g in TWO_QUBIT_GATES:
            body = f"{g.name} q{ins.qubits[0]}, q{ins.qubits[1]}"
        elif g == Gate.MEAS:
            body = f"MEAS q{ins.qubits[0]} -> r{ins.result_reg}"
        elif g in ROTATION_GATES:
            body = f"{g.name} q{ins.qubits[0]}, {ins.angle!r}"
        else:
            body = f"{g.name} q{ins.qubits[0]}"
        return f"{ins.timing_label} {body}"
    if ins.kind == Kind.MRCE:
        return (f"MRCE r{ins.result_reg}, q{ins.mrce_target}, "
                f"{ins.mrce_op0.name}, {ins.mrce_op1.name}")
    if ins.kind == Kind.END_BLOCK:
        return "END"
    op = ins.classical_op
    if op == ClassicalOp.LDI:
        return f"LDI r{ins.rd}, {ins.imm}"
    if op == ClassicalOp.MOV:
        return f"MOV r{ins.rd}, r{ins.ra}"
    if op in (ClassicalOp.ADD, ClassicalOp.SUB, ClassicalOp.AND, ClassicalOp.OR):
        return f"{op.name} r{ins.rd}, r{ins.ra}, r{ins.rb}"
    if op == ClassicalOp.CMP:
        return f"CMP r{ins.ra}, r{ins.rb}"
    if op == ClassicalOp.FMR:
        return f"FMR r{ins.rd}, r{ins.result_reg}"
    if op == ClassicalOp.BR:
        return f"BR.{ins.cond.name.lower()} {ins.target}"
    return f"JMP {ins.target}"


def print_program(p: Program) -> str:
    """Render a Program back to assembly; parse(print(p)) == p."""
    lines = [f".qubits {p.qubit_count}"]
    lines.extend(format_instruction(ins) for ins in p.instructions)
    for d in p.block_directives:
        if d.priority is not None:
            dep = f"prio={d.priority}"
        else:
            dep = "deps=" + ("+".join(d.deps) if d.deps else "none")
        lines.append(f".block {d.name} start={d.pc_start} end={d.pc_end} {dep}")
    return "\n".join(lines) + "\n"


# ── Binary encoding ─────────────────────────────────────────────────

def _check(value: int, width: int, what: str) -> int:
    if not 0 <= value < (1 << width):
        raise EncodingError(f"{what} {value} does not fit {width} bits")
    return value


def encode_instruction(ins: Instruction) -> int:
    """Pack an instruction into its 32-bit word."""
    if ins.kind == Kind.QUANTUM:
        opcode = _OPC_Q_BASE + int(ins.gate) - 1
        word = opcode << 26
        word |= _check(ins.timing_label, 10, "timing label") << 16
        word |= _check(ins.qubits[0], 6, "qubit index") << 10
        if ins.gate in TWO_QUBIT_GATES:
            word |= _check(ins.qubits[1], 6, "qubit index") << 4
        elif ins.gate == Gate.MEAS:
            word |= _check(ins.result_reg, 5, "result register") << 5
        elif ins.gate in ROTATION_GATES:
            step = round(ins.angle / _TWO_PI * ANGLE_STEPS) % ANGLE_STEPS
            word |= step
        return word
    if ins.kind == Kind.MRCE:
        word = _OPC_MRCE << 26
        word |= _check(ins.result_reg, 6, "result register") << 20
        word |= _check(ins.mrce_target, 6, "qubit index") << 14
        word |= _check(int(ins.mrce_op0), 7, "op0") << 7
        word |= _check(int(ins.mrce_op1), 7, "op1")
        return word
    if ins.kind == Kind.END_BLOCK:
        return _OPC_END << 26
    op = ins.classical_op
    word = (_OPC_C_BASE + int(op)) << 26
    if op == ClassicalOp.LDI:
        if not _IMM_MIN <= ins.imm <= _IMM_MAX:
            raise EncodingError(f"immediate {ins.imm} does not fit {_IMM_BITS} bits")
        word |= _check(ins.rd, 5, "register") << 21
        word |= ins.imm & ((1 << _IMM_BITS) - 1)
    elif op == ClassicalOp.MOV:
        word |= _check(ins.rd, 5, "register") << 21
        word |= _check(ins.ra, 5, "register") << 16
    elif op in (ClassicalOp.ADD, ClassicalOp.SUB, ClassicalOp.AND, ClassicalOp.OR):
        word |= _check(ins.rd, 5, "register") << 21
        word |= _check(ins.ra, 5, "register") << 16
        word |= _check(ins.rb, 5, "register") << 11
    elif op == ClassicalOp.CMP:
        word |= _check(ins.ra, 5, "register") << 21
        word |= _check(ins.rb, 5, "register") << 16
    elif op == ClassicalOp.FMR:
        word |= _check(ins.rd, 5, "register") << 21
        word |= _check(ins.result_reg, 5, "result register") << 16
    elif op == ClassicalOp.BR:
        word |= _check(int(ins.cond), 4, "condition") << 22
        word |= _check(ins.target, 22, "branch target")
    elif op == ClassicalOp.JMP:
        word |= _check(ins.target, 22, "jump target")
    return word


def decode_instruction(word: int) -> Instruction:
    """Unpack a 32-bit word; decode(encode(i)) == i for valid instructions."""
    opcode = (word >> 26) & 0x3F
    if opcode == _OPC_END:
        return Instruction(Kind.END_BLOCK)
    if opcode == _OPC_MRCE:
        return Instruction(Kind.MRCE,
                           result_reg=(word >> 20) & 0x3F,
                           mrce_target=(word >> 14) & 0x3F,
                           mrce_op0=Gate((word >> 7) & 0x7F),
                           mrce_op1=Gate(word & 0x7F))
    if _OPC_Q_BASE <= opcode < _OPC_Q_BASE + 10:
        gate = Gate(opcode - _OPC_Q_BASE + 1)
        label = (word >> 16) & 0x3FF
        q0 = (word >> 10) & 0x3F
        if gate in TWO_QUBIT_GATES:
            return Instruction(Kind.QUANTUM, timing_label=label, gate=gate,
                               qubits=(q0, (word >> 4) & 0x3F))
        if gate == Gate.MEAS:
            return Instruction(Kind.QUANTUM, timing_label=label, gate=gate,
                               qubits=(q0,), result_reg=(word >> 5) & 0x1F)
        angle = 0.0
        if gate in ROTATION_GATES:
            angle = (word & 0x3FF) * _TWO_PI / ANGLE_STEPS
        return Instruction(Kind.QUANTUM, timing_label=label, gate=gate,
                           qubits=(q0,), angle=angle)
    if _OPC_C_BASE <= opcode < _OPC_C_BASE + 10:
        op = ClassicalOp(opcode - _OPC_C_BASE)
        ins = Instruction(Kind.CLASSICAL, classical_op=op)
        if op == ClassicalOp.LDI:
            ins.rd = (word >> 21) & 0x1F
            raw = word & ((1 << _IMM_BITS) - 1)
            ins.imm = raw - (1 << _IMM_BITS) if raw > _IMM_MAX else raw
        elif op == ClassicalOp.MOV:
            ins.rd, ins.ra = (word >> 21) & 0x1F, (word >> 16) & 0x1F
        elif op in (ClassicalOp.ADD, ClassicalOp.SUB, ClassicalOp.AND, ClassicalOp.OR):
            ins.rd = (word >> 21) & 0x1F
            ins.ra = (word >> 16) & 0x1F
            ins.rb = (word >> 11) & 0x1F
        elif op == ClassicalOp.CMP:
            ins.ra, ins.rb = (word >> 21) & 0x1F, (word >> 16) & 0x1F
        elif op == ClassicalOp.FMR:
            ins.rd, ins.result_reg = (word >> 21) & 0x1F, (word >> 16) & 0x1F
        elif op == ClassicalOp.BR:
            ins.cond = BranchCond((word >> 22) & 0xF)
            ins.target = word & _TARGET_MAX
        elif op == ClassicalOp.JMP:
            ins.target = word & _TARGET_MAX
        return ins
    raise EncodingError(f"unknown opcode {opcode}")


def encode_program(p: Program) -> bytes:
    """Serialize to the binary container: magic, JSON block section, words."""
    blocks = []
    for d in p.block_directives:
        entry: dict = {"name": d.name, "start": d.pc_start, "end": d.pc_end}
        if d.priority is not None:
            entry["prio"] = d.priority
        else:
            entry["deps"] = list(d.deps)
        blocks.append(entry)
    header = json.dumps({"qubits": p.qubit_count, "blocks": blocks},
                        sort_keys=True).encode("utf-8")
    n = len(p.instructions)
    words = struct.pack(f"<{n}I", *map(encode_instruction, p.instructions))
    return (BINARY_MAGIC + struct.pack("<I", len(header)) + header
            + struct.pack("<I", n) + words)


def decode_program(data: bytes) -> Program:
    if data[:8] != BINARY_MAGIC:
        raise EncodingError("bad magic")
    (header_len,) = struct.unpack_from("<I", data, 8)
    header = json.loads(data[12:12 + header_len].decode("utf-8"))
    offset = 12 + header_len
    (count,) = struct.unpack_from("<I", data, offset)
    offset += 4
    instructions = [
        decode_instruction(struct.unpack_from("<I", data, offset + 4 * i)[0])
        for i in range(count)
    ]
    directives = []
    for entry in header["blocks"]:
        if "prio" in entry:
            directives.append(BlockDirective(entry["name"], entry["start"],
                                             entry["end"], priority=entry["prio"]))
        else:
            directives.append(BlockDirective(entry["name"], entry["start"],
                                             entry["end"], deps=tuple(entry["deps"])))
    return Program(instructions, directives, header["qubits"])


# ── Static validation ───────────────────────────────────────────────

def _effective_blocks(p: Program) -> list[BlockDirective]:
    if p.block_directives:
        return p.block_directives
    if not p.instructions:
        return []
    return [BlockDirective("main", 0, len(p.instructions) - 1, deps=())]


def _ins_where(pc: int, ins: Instruction) -> str:
    return f"pc {pc}" if ins.src_line == 0 else f"line {ins.src_line}"


def _block_where(d: BlockDirective) -> str:
    return f"line {d.src_line}" if d.src_line else f"block {d.name}"


def validate_program(p: Program, qubit_budget: int | None = None) -> list[Diagnostic]:
    """Static checks; an empty list means the program is runnable.

    Instructions are walked once. The walk reports qubit range errors and
    collects measurement producers plus the pcs of branches and result
    readers, which the block and def-use checks then visit on their own.
    """
    out: list[Diagnostic] = []
    instructions = p.instructions
    blocks = _effective_blocks(p)

    if len(blocks) > MAX_BLOCKS:
        out.append(Diagnostic("block table",
                              f"block table capacity exceeded "
                              f"({len(blocks)} > {MAX_BLOCKS})"))

    budget = qubit_budget if qubit_budget else p.qubit_count
    quantum, classical, mrce = Kind.QUANTUM, Kind.CLASSICAL, Kind.MRCE
    meas, fmr, br, jmp = Gate.MEAS, ClassicalOp.FMR, ClassicalOp.BR, ClassicalOp.JMP
    produced: set[int] = set()
    branches: list[int] = []
    readers: list[int] = []     # FMR and MRCE
    for pc, ins in enumerate(instructions):
        kind = ins.kind
        for q in ins.qubits:
            if q >= budget:
                out.append(Diagnostic(_ins_where(pc, ins),
                                      f"qubit q{q} out of range ({budget})"))
        if kind == quantum:
            if ins.gate == meas:
                produced.add(ins.result_reg)
        elif kind == classical:
            op = ins.classical_op
            if op == br or op == jmp:
                branches.append(pc)
            elif op == fmr:
                readers.append(pc)
        elif kind == mrce:
            if ins.mrce_target >= budget:
                out.append(Diagnostic(_ins_where(pc, ins),
                                      f"qubit q{ins.mrce_target} out of range "
                                      f"({budget})"))
            readers.append(pc)

    # block geometry: in-range, ordered, disjoint, covering
    seen_names = set()
    spans = []
    for d in blocks:
        if d.name in seen_names:
            out.append(Diagnostic(_block_where(d), f"duplicate block name {d.name!r}"))
        seen_names.add(d.name)
        if d.pc_start > d.pc_end:
            out.append(Diagnostic(_block_where(d), "pc_start exceeds pc_end"))
            continue
        if d.pc_start < 0:
            out.append(Diagnostic(_block_where(d), "block range starts before pc 0"))
            continue
        if d.pc_end >= len(instructions):
            out.append(Diagnostic(_block_where(d),
                                  "block range exceeds program length"))
            continue
        spans.append((d.pc_start, d.pc_end, d))
    # every block that starts inside an earlier one is reported; stable on
    # equal ranges, so the later declaration is the one reported
    spans.sort(key=lambda span: (span[0], span[1]))
    reach = -1      # last pc covered by the spans swept so far
    for s, e, d in spans:
        if s <= reach:
            out.append(Diagnostic(_block_where(d), "block ranges overlap"))
        reach = max(reach, e)
    next_pc = 0     # first pc not covered by the spans swept so far
    for s, e, _ in spans:
        if s > next_pc:
            break
        next_pc = max(next_pc, e + 1)
    if next_pc < len(instructions):
        out.append(Diagnostic(f"pc {next_pc}", "instruction not covered by any block"))

    # dependency names and acyclicity (direct representation)
    by_name = {d.name: d for d in blocks}
    for d in blocks:
        for dep in d.deps or ():
            if dep not in by_name:
                out.append(Diagnostic(_block_where(d), f"unresolved dependency {dep!r}"))
            elif dep == d.name:
                out.append(Diagnostic(_block_where(d), "block depends on itself"))
    if all((d.deps is not None) for d in blocks) and blocks:
        if _has_cycle(blocks):
            out.append(Diagnostic("block table", "dependency cycle detected"))

    # branch targets stay inside the enclosing block
    for s, e, d in spans:
        for pc in branches[bisect_left(branches, s):bisect_right(branches, e)]:
            ins = instructions[pc]
            if not s <= ins.target <= e:
                out.append(Diagnostic(
                    _ins_where(pc, ins),
                    f"branch target {ins.target} outside block {d.name!r}"))

    # every FMR or MRCE source must be produced by some measurement
    for pc in readers:
        ins = instructions[pc]
        if ins.result_reg not in produced:
            out.append(Diagnostic(_ins_where(pc, ins),
                                  f"result register r{ins.result_reg} never produced"))
    return out


def _has_cycle(blocks: list[BlockDirective]) -> bool:
    names = {d.name: i for i, d in enumerate(blocks)}
    adj = [[names[dep] for dep in (d.deps or ()) if dep in names] for d in blocks]
    state = [0] * len(blocks)

    def visit(v: int) -> bool:
        state[v] = 1
        for w in adj[v]:
            if state[w] == 1 or (state[w] == 0 and visit(w)):
                return True
        state[v] = 2
        return False

    return any(state[v] == 0 and visit(v) for v in range(len(blocks)))
