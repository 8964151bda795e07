"""Timed quantum assembly: instruction model, text grammar, binary encoding.

Quantum instructions carry a timing label: the clock-cycle interval between
the issue of this operation and the issue of the previous quantum
instruction's operation (label 0 means "simultaneous with the previous one").
Classical instructions carry no label; their cost is a property of the
processor model, not of the ISA.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields
from enum import IntEnum
from operator import attrgetter
from typing import NamedTuple

__all__ = [
    "Kind", "Gate", "ClassicalOp", "BranchCond", "Instruction", "BlockDirective",
    "Program", "Diagnostic", "ParseError", "EncodingError",
    "REGISTER_COUNT", "MAX_QUBITS", "MAX_BLOCKS", "BINARY_MAGIC",
    "quantize_angle", "parse_program", "print_program",
    "encode_instruction", "decode_instruction",
    "encode_program", "decode_program", "program_hash", "validate_program",
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


# ── Instruction formats ─────────────────────────────────────────────
#
# One table drives parsing, printing, encoding and decoding. Every
# instruction is one 32-bit word with the opcode in bits [31:26]; a quantum
# word holds its timing label in bits [25:16], and each operand sits at its
# row's shift and width. Only the conditional-execution layout is fixed by
# the hardware contract; the rest is this simulator's own packing.

# how an operand is written
_QUBIT, _REG, _ANGLE, _IMM, _TARGET, _GATE_NAME, _COND = range(7)


class _Operand(NamedTuple):
    field: str      # the Instruction field it fills; qubits fill `qubits` in order
    syntax: int     # how it is written
    shift: int      # its lowest bit in the word
    width: int
    what: str       # its name in an EncodingError


class _Format(NamedTuple):
    name: str                       # mnemonic
    kind: Kind
    code: Gate | ClassicalOp | None
    opcode: int
    arity: str                      # the error when the operand count is wrong
    operands: tuple[_Operand, ...]  # in assembly order
    written: int                    # operands after the mnemonic; BR's cond is in it
    sep: str                        # written between operands


def _row(name: str, kind: Kind, code: Gate | ClassicalOp | None, opcode: int,
         arity: str, operands: tuple[_Operand, ...], sep: str = ", ") -> _Format:
    written = sum(op.syntax != _COND for op in operands)
    return _Format(name, kind, code, opcode, arity, operands, written, sep)


# a quantum word's first qubit, which the encoder packs inline
_Q = _Operand("qubits", _QUBIT, 10, 6, "qubit index")
_RD = _Operand("rd", _REG, 21, 5, "register")
_RA = _Operand("ra", _REG, 16, 5, "register")


def _gate(gate: Gate, arity: str, *rest: _Operand, sep: str = ", ") -> _Format:
    return _row(gate.name, Kind.QUANTUM, gate, int(gate), arity, (_Q, *rest), sep)


def _op(op: ClassicalOp, arity: str, *operands: _Operand) -> _Format:
    return _row(op.name, Kind.CLASSICAL, op, 16 + op, arity, operands)


_FORMATS = (
    *(_gate(g, "takes one qubit") for g in (Gate.X, Gate.Y, Gate.Z, Gate.H)),
    *(_gate(g, "needs a qubit and an angle",
            _Operand("angle", _ANGLE, 0, 10, "angle"))
      for g in (Gate.RX, Gate.RY, Gate.RZ)),
    *(_gate(g, "takes two qubits", _Operand("qubits", _QUBIT, 4, 6, "qubit index"))
      for g in (Gate.CNOT, Gate.CZ)),
    _gate(Gate.MEAS, "needs a qubit and a result register",
          _Operand("result_reg", _REG, 5, 5, "result register"), sep=" -> "),
    _op(ClassicalOp.LDI, "takes a register and an immediate",
        _RD, _Operand("imm", _IMM, 0, 21, "immediate")),   # two's complement
    _op(ClassicalOp.MOV, "takes two registers", _RD, _RA),
    *(_op(op, "takes three registers", _RD, _RA,
          _Operand("rb", _REG, 11, 5, "register"))
      for op in (ClassicalOp.ADD, ClassicalOp.SUB, ClassicalOp.AND,
                 ClassicalOp.OR)),
    _op(ClassicalOp.CMP, "takes two registers",
        _Operand("ra", _REG, 21, 5, "register"),
        _Operand("rb", _REG, 16, 5, "register")),
    _op(ClassicalOp.BR, "takes one target",
        _Operand("cond", _COND, 22, 4, "condition"),
        _Operand("target", _TARGET, 0, 22, "branch target")),
    _op(ClassicalOp.JMP, "takes one target",
        _Operand("target", _TARGET, 0, 22, "jump target")),
    _op(ClassicalOp.FMR, "takes a destination and a result register",
        _RD, _Operand("result_reg", _REG, 16, 5, "result register")),
    _row("MRCE", Kind.MRCE, None, 32, "takes result reg, qubit, op0, op1", (
        _Operand("result_reg", _REG, 20, 6, "result register"),
        _Operand("mrce_target", _QUBIT, 14, 6, "qubit index"),
        _Operand("mrce_op0", _GATE_NAME, 7, 7, "op0"),
        _Operand("mrce_op1", _GATE_NAME, 0, 7, "op1"))),
    _row("END", Kind.END_BLOCK, None, 63, "takes no operands", ()),
)
# each enum's values overlap the others', so each has its own lookup
_GATE_FORMATS = {f.code: f for f in _FORMATS if f.kind == Kind.QUANTUM}
_OP_FORMATS = {f.code: f for f in _FORMATS if f.kind == Kind.CLASSICAL}
_KIND_FORMATS = {f.kind: f for f in _FORMATS if f.code is None}
_OPCODE_FORMATS = {f.opcode: f for f in _FORMATS}
_PAIR_GATES = frozenset(g for g, f in _GATE_FORMATS.items()
                        if [op.syntax for op in f.operands] == [_QUBIT, _QUBIT])

# enum members read per instruction, bound once: looking a member up on
# its enum class costs several times a module global
_QUANTUM = Kind.QUANTUM
_CLASSICAL = Kind.CLASSICAL


def _format_of(ins: Instruction) -> _Format:
    """The row of a classical, MRCE or END instruction."""
    if ins.kind == _CLASSICAL:
        return _OP_FORMATS[ins.classical_op]
    return _KIND_FORMATS[ins.kind]


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


@dataclass(eq=True, slots=True)
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

    def __repr__(self) -> str:
        try:
            return f"<{format_instruction(self)}>"
        except (LookupError, TypeError, ValueError):
            # an instruction validation rejects may have no assembly form
            # (no format row, or a value outside its enum); show its fields
            values = ", ".join(f"{f.name}={getattr(self, f.name)!r}"
                               for f in fields(self))
            return f"<Instruction {values}>"


@dataclass(eq=True, slots=True)
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

_QUANTUM_MNEMONICS = {f.name: f for f in _GATE_FORMATS.values()}
_CLASSICAL_MNEMONICS = {f.name: f for f in _FORMATS if f.kind != Kind.QUANTUM}
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


def _parse_instruction(line: str, line_no: int) -> tuple[Instruction, str | None]:
    """One stripped instruction line, and the label its branch target
    names, if any."""
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
        tokens = tokens[1].split(None, 1)
        mnemonic = tokens[0].upper()
        fmt = _QUANTUM_MNEMONICS.get(mnemonic)
        if fmt is None:
            raise ParseError(line_no, f"unknown quantum mnemonic {mnemonic!r}")
    else:
        mnemonic = head.upper()
        # MRCE and END take no suffix; a classical mnemonic may, and BR
        # reads its condition there
        fmt = _CLASSICAL_MNEMONICS.get(mnemonic.split(".")[0])
        if fmt is None or (fmt.kind != _CLASSICAL and mnemonic != fmt.name):
            raise ParseError(line_no, f"unknown mnemonic {mnemonic!r}")
    ops = _split_operands(tokens[1]) if len(tokens) > 1 else []
    if len(ops) != fmt.written:
        raise ParseError(line_no, f"{fmt.name} {fmt.arity}")
    if fmt.kind == _QUANTUM:
        # the first qubit is read inline, as the encoder does
        ins = Instruction(_QUANTUM, timing_label=label, gate=fmt.code,
                          qubits=(_parse_qubit(ops[0], line_no),),
                          src_line=line_no)
        if len(ops) == 1:
            return ins, None
        first = 1
    else:
        ins = Instruction(fmt.kind, classical_op=fmt.code, src_line=line_no)
        first = 0

    target_name = None
    rest = iter(ops[first:])
    for field, syntax, *_ in fmt.operands[first:]:
        if syntax == _COND:
            parts = mnemonic.split(".")
            if len(parts) != 2 or parts[1].lower() not in _COND_NAMES:
                raise ParseError(line_no, f"bad branch condition in {mnemonic!r}")
            value = _COND_NAMES[parts[1].lower()]
        else:
            tok = next(rest)
            if syntax == _QUBIT:
                value = _parse_qubit(tok, line_no)
            elif syntax == _REG:
                value = _parse_reg(tok, line_no)
            elif syntax == _ANGLE:
                # inf and nan have no step on the grid
                try:
                    value = quantize_angle(float(tok))
                except (ValueError, OverflowError):
                    raise ParseError(line_no, f"bad angle {tok!r}") from None
            elif syntax == _IMM:
                try:
                    value = int(tok, 0)
                except ValueError:
                    raise ParseError(line_no, f"bad immediate {tok!r}") from None
            elif syntax == _GATE_NAME:
                tok = tok.upper()
                if tok not in Gate.__members__ or Gate[tok] not in MRCE_OPS:
                    raise ParseError(line_no, f"{tok} is not a conditional-exec op")
                value = Gate[tok]
            elif tok.lstrip("-").isdigit():
                value = int(tok)
            elif _NAME_RE.match(tok):
                target_name = tok
                continue
            else:
                raise ParseError(line_no, f"bad branch target {tok!r}")
        if field == "qubits":
            value = ins.qubits + (value,)
        setattr(ins, field, value)
    qubits = ins.qubits
    if len(qubits) == 2 and qubits[0] == qubits[1]:
        raise ParseError(line_no, f"{fmt.name} qubits must be distinct")
    return ins, target_name


# an instruction's field values but `src_line`, which is the last field
_fields_but_src_line = attrgetter(*[f.name for f in fields(Instruction)][:-1])


def parse_program(text: str) -> Program:
    """Parse assembly source into a Program.

    One instruction or directive per line; `#` starts a comment. Quantum
    lines are `<label> <MNEMONIC> <operands>`; classical lines have no
    label. `.qubits <n>` sets the qubit count, `.block` declares a program
    block, and `name:` defines a branch-target label.

    Each distinct instruction line is parsed once per call; a repeat builds
    a fresh `Instruction` from the first parse's fields, with its own
    `src_line`, and resolves its own branch target.
    """
    instructions: list[Instruction] = []
    directives: list[BlockDirective] = []
    labels: dict[str, int] = {}
    pending_targets: list[tuple[int, str, int]] = []
    qubit_count: int | None = None
    dep_style: str | None = None
    # stripped instruction line -> (its fields but src_line, target label)
    parsed: dict[str, tuple[tuple, str | None]] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        hit = parsed.get(line)
        if hit is not None:
            values, name = hit
            if name is not None:
                pending_targets.append((len(instructions), name, line_no))
            instructions.append(Instruction(*values, line_no))
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

        ins, name = _parse_instruction(line, line_no)
        if name is not None:
            pending_targets.append((len(instructions), name, line_no))
        instructions.append(ins)
        parsed[line] = (_fields_but_src_line(ins), name)

    for pc, name, line_no in pending_targets:
        if name not in labels:
            raise ParseError(line_no, f"dangling branch target {name!r}")
        instructions[pc].target = labels[name]

    if qubit_count is None:
        qubit_count = qubits_used(instructions)
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


def qubits_used(instructions: list[Instruction]) -> int:
    """One more than the highest qubit the instructions name as a quantum
    operand or MRCE target; 0 when they name none."""
    highest = -1
    for ins in instructions:
        for q in ins.qubits:
            highest = max(highest, q)
        if ins.kind == Kind.MRCE:
            highest = max(highest, ins.mrce_target)
    return highest + 1


# ── Printing ────────────────────────────────────────────────────────

def format_instruction(ins: Instruction) -> str:
    # fields may hold plain ints, as validation and the encoder accept;
    # names are read through the enums
    if ins.kind == _QUANTUM:
        fmt = _GATE_FORMATS[ins.gate]
        if len(fmt.operands) == 1:
            return f"{ins.timing_label} {fmt.name} q{ins.qubits[0]}"
        head = f"{ins.timing_label} {fmt.name}"
    else:
        fmt = _format_of(ins)
        head = fmt.name
    parts = []
    for i, (field, syntax, *_) in enumerate(fmt.operands):
        value = ins.qubits[i] if field == "qubits" else getattr(ins, field)
        if syntax == _COND:
            head += "." + BranchCond(value).name.lower()
        elif syntax == _QUBIT:
            parts.append(f"q{value}")
        elif syntax == _REG:
            parts.append(f"r{value}")
        elif syntax == _GATE_NAME:
            parts.append(Gate(value).name)
        else:
            parts.append(repr(value))       # angle, immediate or target
    return f"{head} {fmt.sep.join(parts)}" if parts else head


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

def _check(value: int, width: int, what: str, low: int = 0) -> None:
    if not low <= value < low + (1 << width):
        raise EncodingError(f"{what} {value} does not fit {width} bits")


def encode_instruction(ins: Instruction) -> int:
    """Pack an instruction into its 32-bit word."""
    if ins.kind == _QUANTUM:
        label = ins.timing_label
        q0 = ins.qubits[0]
        # the label and first qubit are range-checked inline, like every
        # unsigned field; `_check` only raises
        if not (0 <= label <= MAX_TIMING_LABEL and 0 <= q0 < MAX_QUBITS):
            _check(label, 10, "timing label")
            _check(q0, 6, "qubit index")
        fmt = _GATE_FORMATS[ins.gate]
        word = fmt.opcode << 26 | label << 16 | q0 << 10
        if len(fmt.operands) == 1:
            return word
        first = 1
    else:
        fmt = _format_of(ins)
        word = fmt.opcode << 26
        first = 0
    operands = fmt.operands
    for i in range(first, len(operands)):
        field, syntax, shift, width, what = operands[i]
        value = ins.qubits[i] if field == "qubits" else getattr(ins, field)
        if syntax == _ANGLE:
            value = round(value / _TWO_PI * ANGLE_STEPS) % ANGLE_STEPS
        elif syntax == _IMM:
            _check(value, width, what, -(1 << width - 1))   # two's complement
            value &= (1 << width) - 1
        elif not 0 <= value < 1 << width:
            _check(value, width, what)
        word |= value << shift
    return word


def decode_instruction(word: int) -> Instruction:
    """Unpack a 32-bit word; decode(encode(i)) == i for valid instructions."""
    opcode = (word >> 26) & 0x3F
    fmt = _OPCODE_FORMATS.get(opcode)
    if fmt is None:
        raise EncodingError(f"unknown opcode {opcode}")
    if fmt.kind == _QUANTUM:
        ins = Instruction(_QUANTUM, timing_label=(word >> 16) & MAX_TIMING_LABEL,
                          gate=fmt.code)
    else:
        ins = Instruction(fmt.kind, classical_op=fmt.code)
    for field, syntax, shift, width, _ in fmt.operands:
        value = (word >> shift) & ((1 << width) - 1)
        if syntax == _ANGLE:
            value = value * _TWO_PI / ANGLE_STEPS
        elif syntax == _IMM and value >> (width - 1):
            value -= 1 << width
        elif syntax == _GATE_NAME:
            value = Gate(value)
        elif syntax == _COND:
            value = BranchCond(value)
        if field == "qubits":
            value = ins.qubits + (value,)
        setattr(ins, field, value)
    return ins


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


def program_hash(p: Program) -> str:
    """The first 16 hex digits of the sha256 of the binary encoding."""
    return hashlib.sha256(encode_program(p)).hexdigest()[:16]


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


def _qubit_list(qubits: tuple[int, ...]) -> str:
    return ", ".join(f"q{q}" for q in qubits) or "none"


def _operand_errors(ins: Instruction, fmt: _Format, budget: int):
    """The messages for the operands of a classical or MRCE instruction
    that no word of its format can hold, or that the run path reads out of
    range: a register outside r0-r31, a qubit outside the budget, an
    immediate too wide, a branch condition or a conditional-execution
    operand that does not exist."""
    for field, syntax, _, width, _ in fmt.operands:
        value = getattr(ins, field)
        if syntax == _REG:
            if not 0 <= value < REGISTER_COUNT:
                yield f"register r{value} out of range ({REGISTER_COUNT})"
        elif syntax == _QUBIT:
            if not 0 <= value < budget:
                yield f"qubit q{value} out of range ({budget})"
        elif syntax == _IMM:
            if not -(1 << width - 1) <= value < 1 << width - 1:
                yield f"immediate {value} does not fit {width} bits"
        elif syntax == _COND:
            if not 0 <= value < len(BranchCond):
                yield (f"branch condition {value} out of range "
                       f"({len(BranchCond)})")
        elif syntax == _GATE_NAME and value not in MRCE_OPS:
            yield f"{Gate(value).name} is not a conditional-exec op"


def validate_program(p: Program, qubit_budget: int | None = None) -> list[Diagnostic]:
    """Static checks; an empty list means the program is runnable.

    Instructions are walked once. The walk reports qubits and registers out
    of range, quantum instructions whose gate has no quantum format (NOP) or
    whose qubits do not fit their gate, and the operands of classical and
    MRCE instructions that the run path cannot execute. It collects
    measurement producers plus the pcs of branches and result readers, which
    the block and def-use checks then visit on their own.
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
    formats, pairs = _GATE_FORMATS, _PAIR_GATES
    mrce_format = _KIND_FORMATS[mrce]
    produced: set[int] = set()
    branches: list[int] = []
    readers: list[int] = []     # FMR and MRCE
    for pc, ins in enumerate(instructions):
        kind = ins.kind
        for q in ins.qubits:
            if q >= budget or q < 0:
                out.append(Diagnostic(_ins_where(pc, ins),
                                      f"qubit q{q} out of range ({budget})"))
        if kind == quantum:
            gate = ins.gate
            if gate == meas:
                reg = ins.result_reg
                produced.add(reg)
                if not 0 <= reg < REGISTER_COUNT:
                    out.append(Diagnostic(
                        _ins_where(pc, ins),
                        f"register r{reg} out of range ({REGISTER_COUNT})"))
            qubits = ins.qubits
            if gate not in formats:
                out.append(Diagnostic(_ins_where(pc, ins),
                                      f"{Gate(gate).name} is not a quantum "
                                      f"instruction"))
            elif gate in pairs:
                if len(qubits) != 2 or qubits[0] == qubits[1]:
                    out.append(Diagnostic(
                        _ins_where(pc, ins),
                        f"{Gate(gate).name} takes two distinct qubits, got "
                        f"{_qubit_list(qubits)}"))
            elif len(qubits) != 1:
                out.append(Diagnostic(
                    _ins_where(pc, ins),
                    f"{Gate(gate).name} takes one qubit, got "
                    f"{_qubit_list(qubits)}"))
        elif kind == classical or kind == mrce:
            if kind == mrce:
                fmt = mrce_format
                readers.append(pc)
            else:
                op = ins.classical_op
                fmt = _OP_FORMATS.get(op)
                if fmt is None:
                    out.append(Diagnostic(_ins_where(pc, ins),
                                          f"classical op {op} does not exist"))
                    continue
                if op == br or op == jmp:
                    branches.append(pc)
                elif op == fmr:
                    readers.append(pc)
            for message in _operand_errors(ins, fmt, budget):
                out.append(Diagnostic(_ins_where(pc, ins), message))

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

    # one dependency style for every block, as the parser requires
    direct = not blocks or blocks[0].priority is None
    for d in blocks:
        if ((d.priority is None) != direct
                or d.priority is not None and d.deps is not None):
            out.append(Diagnostic(_block_where(d),
                                  "mixed deps/prio styles in one program"))

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
