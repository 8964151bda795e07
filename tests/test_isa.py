"""Assembly grammar, binary encoding, and static validation."""

import copy
import dataclasses
import math
import pickle
import random

import pytest

from qcpsim.isa import (
    BlockDirective, BranchCond, ClassicalOp, EncodingError, Gate, Instruction,
    Kind, Program, BINARY_MAGIC, MAX_BLOCKS, ParseError, decode_instruction, decode_program,
    encode_instruction, encode_program, parse_program, print_program,
    quantize_angle, validate_program,
)

THREE_LINER = "0 H q0\n0 H q1\n1 CNOT q0,q1\n"


def test_parse_three_line_program():
    p = parse_program(THREE_LINER)
    assert len(p.instructions) == 3
    assert [i.timing_label for i in p.instructions] == [0, 0, 1]
    assert [i.gate for i in p.instructions] == [Gate.H, Gate.H, Gate.CNOT]
    assert p.instructions[2].qubits == (0, 1)
    assert p.qubit_count == 2


def test_parse_empty_program():
    p = parse_program(".qubits 1\n")
    assert len(p.instructions) == 0
    assert p.qubit_count == 1


def test_parse_meas_then_conditional():
    p = parse_program("0 MEAS q0 -> r0\nMRCE r0, q0, NOP, X\n")
    meas, mrce = p.instructions
    assert meas.gate == Gate.MEAS and meas.result_reg == 0
    assert mrce.kind == Kind.MRCE
    assert mrce.mrce_op0 == Gate.NOP and mrce.mrce_op1 == Gate.X
    assert mrce.mrce_target == 0


ROUND_TRIP = "\n".join([
    ".qubits 4",
    "0 H q0",
    "0 MEAS q0 -> r3",
    "MRCE r3, q1, NOP, X",
    "2 RX q2, 1.5707963267948966",
    "LDI r5, -17",
    "MOV r6, r5",
    "ADD r7, r5, r6",
    "SUB r8, r7, r5",
    "AND r9, r7, r8",
    "OR r10, r9, r8",
    "CMP r9, r10",
    "BR.le 13",
    "FMR r1, r3",
    "4 CZ q2, q3",
    "JMP 15",
    "END",
]) + "\n"


def test_parse_print_round_trip():
    p = parse_program(ROUND_TRIP)
    assert parse_program(print_program(p)) == p


# ROUND_TRIP plus one line for each mnemonic it lacks, with every word
EVERY_MNEMONIC = ROUND_TRIP + "\n".join([
    "0 X q0",
    "1 Y q1",
    "0 Z q2",
    "3 RY q3, 0.7853981633974483",
    "0 RZ q1, 4.71238898038469",
    "5 CNOT q3, q0",
]) + "\n"
EVERY_MNEMONIC_WORDS = [
    0x10000000, 0x28000060, 0x80304001, 0x14020900, 0x40BFFFEF, 0x44C50000,
    0x48E53000, 0x4D072800, 0x51274000, 0x55494000, 0x592A0000, 0x5CC0000D,
    0x64230000, 0x24040830, 0x6000000F, 0xFC000000, 0x04000000, 0x08010400,
    0x0C000800, 0x18030C80, 0x1C000700, 0x20050C00,
]


def test_every_mnemonic_prints_and_packs_as_pinned():
    p = parse_program(EVERY_MNEMONIC)
    assert print_program(p) == EVERY_MNEMONIC
    assert parse_program(print_program(p)) == p
    words = [encode_instruction(ins) for ins in p.instructions]
    assert words == EVERY_MNEMONIC_WORDS
    assert [decode_instruction(w) for w in words] == p.instructions


@pytest.mark.parametrize("source, message", [
    # quantum operand counts, operands and labels
    ("0 H q0, q1", "H takes one qubit"),
    ("0 X", "X takes one qubit"),
    ("0 CNOT q0", "CNOT takes two qubits"),
    ("0 CZ q0, q1, q2", "CZ takes two qubits"),
    ("0 MEAS q0", "MEAS needs a qubit and a result register"),
    ("0 RX q0", "RX needs a qubit and an angle"),
    ("0 RZ q0, 1.0, 2.0", "RZ needs a qubit and an angle"),
    ("0 CNOT q1, q1", "CNOT qubits must be distinct"),
    ("0 RY q0, half", "bad angle 'half'"),
    ("0 H r0", "expected qubit operand, got 'r0'"),
    ("0 CZ q0, 1", "expected qubit operand, got '1'"),
    ("0 MEAS q0 -> q1", "expected register operand, got 'q1'"),
    ("0 MEAS q0 -> r32", "register index 32 out of range"),
    ("-1 H q0", "timing label must be nonnegative"),
    ("1024 H q0", "timing label 1024 too large"),
    ("5", "timing label without an instruction"),
    ("0 FROB q0", "unknown quantum mnemonic 'FROB'"),
    ("0 LDI r1, 2", "unknown quantum mnemonic 'LDI'"),
    # classical operand counts and operands
    ("LDI r1", "LDI takes a register and an immediate"),
    ("LDI r1, x", "bad immediate 'x'"),
    ("LDI r1, 0x1g", "bad immediate '0x1g'"),
    ("LDI q1, 2", "expected register operand, got 'q1'"),
    ("MOV r1", "MOV takes two registers"),
    ("MOV r1, r40", "register index 40 out of range"),
    ("ADD r1, r2", "ADD takes three registers"),
    ("SUB r1, r2, r3, r4", "SUB takes three registers"),
    ("AND r1", "AND takes three registers"),
    ("OR r1, r2", "OR takes three registers"),
    ("CMP r1", "CMP takes two registers"),
    ("FMR r1", "FMR takes a destination and a result register"),
    ("FMR r1, q0", "expected register operand, got 'q0'"),
    ("BR.eq", "BR takes one target"),
    ("JMP 1, 2", "JMP takes one target"),
    ("JMP 1x", "bad branch target '1x'"),
    ("BR.ne -", "bad branch target '-'"),
    ("BR 3", "bad branch condition in 'BR'"),
    ("BR.xx 3", "bad branch condition in 'BR.XX'"),
    ("BR.eq.ne 3", "bad branch condition in 'BR.EQ.NE'"),
    ("JMP nowhere", "dangling branch target 'nowhere'"),
    # conditional execution and block end
    ("MRCE r0, q0, X", "MRCE takes result reg, qubit, op0, op1"),
    ("MRCE r0, q0, X, CNOT", "CNOT is not a conditional-exec op"),
    ("MRCE r0, q0, foo, X", "FOO is not a conditional-exec op"),
    ("MRCE q0, q0, X, X", "expected register operand, got 'q0'"),
    ("MRCE r0, r0, X, X", "expected qubit operand, got 'r0'"),
    ("END r0", "END takes no operands"),
    ("FROB r1", "unknown mnemonic 'FROB'"),
    ("MRCE.x r0, q0, X, X", "unknown mnemonic 'MRCE.X'"),
])
def test_parse_errors_pinned(source, message):
    with pytest.raises(ParseError) as e:
        parse_program(f"0 H q0\n{source}\n")
    assert str(e.value) == f"line 2: {message}"


@pytest.mark.parametrize("angle", ["inf", "-inf", "nan"])
def test_angle_off_the_grid_is_a_parse_error(angle):
    # an angle with no step on the 1/1024-turn grid is bad input, not a
    # crash in the quantizer
    with pytest.raises(ParseError) as e:
        parse_program(f"0 H q0\n1 RX q0, {angle}\n")
    assert str(e.value) == f"line 2: bad angle {angle!r}"


def _classical(op, **fields):
    return Instruction(Kind.CLASSICAL, classical_op=op, **fields)


@pytest.mark.parametrize("ins, message", [
    (Instruction(Kind.QUANTUM, gate=Gate.CZ, qubits=(0, -1)),
     "qubit index -1 does not fit 6 bits"),
    (Instruction(Kind.QUANTUM, gate=Gate.MEAS, qubits=(0,), result_reg=-1),
     "result register -1 does not fit 5 bits"),
    (_classical(ClassicalOp.LDI, rd=1, imm=1 << 20),
     "immediate 1048576 does not fit 21 bits"),
    (_classical(ClassicalOp.LDI, rd=1, imm=-(1 << 20) - 1),
     "immediate -1048577 does not fit 21 bits"),
    (_classical(ClassicalOp.LDI, rd=32), "register 32 does not fit 5 bits"),
    (_classical(ClassicalOp.MOV, rd=32), "register 32 does not fit 5 bits"),
    (_classical(ClassicalOp.MOV, ra=-1), "register -1 does not fit 5 bits"),
    (_classical(ClassicalOp.ADD, rd=32), "register 32 does not fit 5 bits"),
    (_classical(ClassicalOp.SUB, ra=32), "register 32 does not fit 5 bits"),
    (_classical(ClassicalOp.OR, rb=32), "register 32 does not fit 5 bits"),
    (_classical(ClassicalOp.CMP, ra=32), "register 32 does not fit 5 bits"),
    (_classical(ClassicalOp.CMP, rb=32), "register 32 does not fit 5 bits"),
    (_classical(ClassicalOp.FMR, rd=32), "register 32 does not fit 5 bits"),
    (_classical(ClassicalOp.FMR, result_reg=32),
     "result register 32 does not fit 5 bits"),
    (_classical(ClassicalOp.BR, cond=16), "condition 16 does not fit 4 bits"),
    (_classical(ClassicalOp.BR, target=1 << 22),
     "branch target 4194304 does not fit 22 bits"),
    (_classical(ClassicalOp.BR, target=-1),
     "branch target -1 does not fit 22 bits"),
    (_classical(ClassicalOp.JMP, target=1 << 22),
     "jump target 4194304 does not fit 22 bits"),
    (Instruction(Kind.MRCE, result_reg=64),
     "result register 64 does not fit 6 bits"),
    (Instruction(Kind.MRCE, mrce_target=64),
     "qubit index 64 does not fit 6 bits"),
    (Instruction(Kind.MRCE, mrce_op0=128), "op0 128 does not fit 7 bits"),
    (Instruction(Kind.MRCE, mrce_op1=-1), "op1 -1 does not fit 7 bits"),
])
def test_encoding_errors_pinned(ins, message):
    with pytest.raises(EncodingError) as e:
        encode_instruction(ins)
    assert str(e.value) == message


@pytest.mark.parametrize("opcode", [0, 11, 15, 26, 31, 33, 62])
def test_unknown_opcode_pinned(opcode):
    with pytest.raises(EncodingError) as e:
        decode_instruction(opcode << 26)
    assert str(e.value) == f"unknown opcode {opcode}"


def test_print_program_reads_plain_int_fields():
    # validation, the encoder and lowering accept plain ints in the enum
    # fields, so printing must too
    p = Program([Instruction(0, gate=4, qubits=(0,))], [], 1)
    assert validate_program(p) == []
    assert print_program(p) == ".qubits 1\n0 H q0\n"
    enums = parse_program(ROUND_TRIP)
    ints = Program([dataclasses.replace(
        ins, kind=int(ins.kind), gate=int(ins.gate), cond=int(ins.cond),
        classical_op=(None if ins.classical_op is None
                      else int(ins.classical_op)),
        mrce_op0=int(ins.mrce_op0), mrce_op1=int(ins.mrce_op1))
        for ins in enums.instructions], [], enums.qubit_count)
    assert print_program(ints) == print_program(enums)


@pytest.mark.parametrize("bad, shown", [
    (Instruction(Kind.CLASSICAL, classical_op=ClassicalOp.BR, cond=9),
     "cond=9"),
    (Instruction(Kind.CLASSICAL, classical_op=None), "classical_op=None"),
])
def test_repr_shows_an_instruction_validation_rejects(bad, shown):
    # a failing assertion must be able to show the instruction it is about,
    # though it has no assembly form; a valid one still shows as assembly
    assert shown in repr(bad)
    assert repr(Instruction(Kind.QUANTUM, gate=Gate.H, qubits=(1,))) == (
        "<0 H q1>")


def _all_fields(record) -> tuple:
    # every field, `src_line` too, which `==` leaves out
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


def test_program_records_are_slotted():
    # parse, validate, decode and encode read these fields once per
    # instruction; slotted records hold them without a per-object dict
    p = parse_program(ROUND_TRIP + ".block b0 start=0 end=3 deps=none\n"
                      ".block b1 start=4 end=15 deps=b0\n")
    assert validate_program(p) == []
    records = p.instructions + p.block_directives
    assert {type(r) for r in records} == {Instruction, BlockDirective}
    for record in records:
        assert not hasattr(record, "__dict__")
        for twin in (pickle.loads(pickle.dumps(record)),
                     copy.deepcopy(record), dataclasses.replace(record)):
            assert type(twin) is type(record)
            assert _all_fields(twin) == _all_fields(record)
        moved = dataclasses.replace(record, src_line=record.src_line + 100)
        assert moved == record
        assert moved.src_line == record.src_line + 100


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_program("0 H q0\nBOGUS r1\n")
    assert e.value.line_no == 2
    with pytest.raises(ParseError):
        parse_program("0 FROB q0\n")
    with pytest.raises(ParseError):
        parse_program("BR.eq nowhere\n")
    # mixed dependency styles in a single program
    with pytest.raises(ParseError):
        parse_program("0 H q0\n0 H q1\n"
                      ".block a start=0 end=0 deps=none\n"
                      ".block b start=1 end=1 prio=0\n")


def test_labels_resolve_to_addresses():
    p = parse_program("LDI r1, 1\nloop:\nADD r1, r1, r1\nJMP loop\n")
    assert p.instructions[2].target == 1


def test_mrce_encoding_layout():
    # fixed field order: opcode | result reg | target qubit | op0 | op1
    ins = Instruction(Kind.MRCE, result_reg=0, mrce_target=1,
                      mrce_op0=Gate.NOP, mrce_op1=Gate.X)
    word = encode_instruction(ins)
    assert (word >> 20) & 0x3F == 0
    assert (word >> 14) & 0x3F == 1
    assert (word >> 7) & 0x7F == int(Gate.NOP)
    assert word & 0x7F == int(Gate.X)
    assert decode_instruction(word) == ins


def test_angle_quantization_is_idempotent():
    a = quantize_angle(1.0)
    assert quantize_angle(a) == a
    assert quantize_angle(0.0) == 0.0
    assert abs(a - 1.0) <= math.pi / 1024


def test_field_overflow_rejected():
    ins = Instruction(Kind.QUANTUM, timing_label=0, gate=Gate.H, qubits=(64,))
    with pytest.raises(EncodingError):
        encode_instruction(ins)
    with pytest.raises(EncodingError):
        encode_instruction(Instruction(Kind.QUANTUM, timing_label=1 << 10,
                                       gate=Gate.H, qubits=(0,)))


def _random_instruction(rng: random.Random) -> Instruction:
    kind = rng.choice([Kind.QUANTUM, Kind.CLASSICAL, Kind.MRCE, Kind.END_BLOCK])
    if kind == Kind.QUANTUM:
        gate = rng.choice([Gate.X, Gate.Y, Gate.Z, Gate.H, Gate.RX, Gate.RY,
                           Gate.RZ, Gate.CNOT, Gate.CZ, Gate.MEAS])
        label = rng.randrange(0, 1 << 10)
        if gate in (Gate.CNOT, Gate.CZ):
            a = rng.randrange(64)
            b = (a + 1 + rng.randrange(63)) % 64
            return Instruction(kind, timing_label=label, gate=gate, qubits=(a, b))
        if gate == Gate.MEAS:
            return Instruction(kind, timing_label=label, gate=gate,
                               qubits=(rng.randrange(64),),
                               result_reg=rng.randrange(32))
        angle = 0.0
        if gate in (Gate.RX, Gate.RY, Gate.RZ):
            angle = quantize_angle(rng.uniform(0, 2 * math.pi))
        return Instruction(kind, timing_label=label, gate=gate,
                           qubits=(rng.randrange(64),), angle=angle)
    if kind == Kind.MRCE:
        ops = [Gate.NOP, Gate.X, Gate.Y, Gate.Z, Gate.H]
        return Instruction(kind, result_reg=rng.randrange(32),
                           mrce_target=rng.randrange(64),
                           mrce_op0=rng.choice(ops), mrce_op1=rng.choice(ops))
    if kind == Kind.END_BLOCK:
        return Instruction(kind)
    op = rng.choice(list(ClassicalOp))
    ins = Instruction(kind, classical_op=op)
    if op == ClassicalOp.LDI:
        ins.rd = rng.randrange(32)
        ins.imm = rng.randrange(-(1 << 20), 1 << 20)
    elif op == ClassicalOp.MOV:
        ins.rd, ins.ra = rng.randrange(32), rng.randrange(32)
    elif op in (ClassicalOp.ADD, ClassicalOp.SUB, ClassicalOp.AND, ClassicalOp.OR):
        ins.rd, ins.ra, ins.rb = (rng.randrange(32) for _ in range(3))
    elif op == ClassicalOp.CMP:
        ins.ra, ins.rb = rng.randrange(32), rng.randrange(32)
    elif op == ClassicalOp.FMR:
        ins.rd, ins.result_reg = rng.randrange(32), rng.randrange(32)
    elif op == ClassicalOp.BR:
        ins.cond = rng.choice(list(BranchCond))
        ins.target = rng.randrange(1 << 22)
    elif op == ClassicalOp.JMP:
        ins.target = rng.randrange(1 << 22)
    return ins


def test_encode_decode_round_trip_fuzz():
    rng = random.Random(2024)
    for _ in range(10_000):
        ins = _random_instruction(rng)
        word = encode_instruction(ins)
        assert 0 <= word < (1 << 32)
        assert decode_instruction(word) == ins


def test_timing_labels_survive_encode_decode():
    p = parse_program(THREE_LINER)
    labels = [i.timing_label for i in p.instructions]
    decoded = [decode_instruction(encode_instruction(i)) for i in p.instructions]
    assert [i.timing_label for i in decoded] == labels
    assert parse_program(print_program(p)).instructions == p.instructions


def test_validate_block_capacity():
    lines = [".qubits 1"] + ["0 H q0"] * (MAX_BLOCKS + 1)
    lines += [f".block b{i} start={i} end={i} deps=none"
              for i in range(MAX_BLOCKS + 1)]
    p = parse_program("\n".join(lines) + "\n")
    diags = validate_program(p)
    assert any("capacity exceeded" in d.message for d in diags)


def test_validate_clean_program():
    assert validate_program(parse_program(THREE_LINER)) == []


def test_validate_fmr_never_produced():
    # static def-use oracle: collect measurement destinations, then check
    produced = set()
    p = parse_program("0 MEAS q0 -> r2\nFMR r1, r5\n")
    for ins in p.instructions:
        if ins.is_quantum and ins.gate == Gate.MEAS:
            produced.add(ins.result_reg)
    assert 5 not in produced
    diags = validate_program(p)
    assert any("never produced" in d.message for d in diags)
    assert all(d.where for d in diags)


def test_validate_branch_target_in_block():
    p = parse_program("0 H q0\nJMP 5\n0 H q0\n"
                      ".block a start=0 end=2 deps=none\n")
    diags = validate_program(p)
    assert any("outside block" in d.message for d in diags)


def test_validate_dependency_cycle():
    p = parse_program("0 H q0\n0 H q0\n"
                      ".block a start=0 end=0 deps=b\n"
                      ".block b start=1 end=1 deps=a\n")
    diags = validate_program(p)
    assert any("cycle" in d.message for d in diags)


def test_binary_container_round_trip():
    p = parse_program(THREE_LINER + ".block main start=0 end=2 deps=none\n")
    blob = encode_program(p)
    assert blob[:8] == BINARY_MAGIC
    assert decode_program(blob) == p


def test_binary_container_priority_blocks():
    p = parse_program("0 H q0\n0 H q1\n"
                      ".block a start=0 end=0 prio=0\n"
                      ".block b start=1 end=1 prio=1\n")
    assert decode_program(encode_program(p)) == p


# ── Front-end pins and the once-per-distinct-line parse ─────────────

def _front_end_programs():
    """Every benchmark program at its defaults, plus the longer and
    alternative generator forms."""
    from qcpsim.bench import (BENCHMARKS, gen_active_reset_plus_rb, gen_dense,
                              gen_parallel_rus, make_benchmark)
    progs = {f"bench-{name}": make_benchmark(name).program
             for name in sorted(BENCHMARKS)}
    progs["dense8x300"] = gen_dense(8, 300)
    progs["reset20-mrce"] = gen_active_reset_plus_rb(20, mrce=True)
    progs["reset20-plain"] = gen_active_reset_plus_rb(20, mrce=False)
    progs["rus8"] = gen_parallel_rus(8)
    return progs


# name -> (program_hash, sha256 of repr(decode_for_execution(p)))
FRONT_END_PINS = {
    "bench-active_reset_rb": (
        "1db2989de523ce78",
        "76b49d2f970e9980f47b119407a997df38573016870fa636ab4ebd89553a457f"),
    "bench-dense": (
        "78c1f5eac37883c5",
        "1cb3874433d9c76571fc0449064d440c5c86d38fb4a7c048c5caf9785c045b26"),
    "bench-feedforward": (
        "2537d07e6d0ccca3",
        "68ae06d5c8a5557a581b7754ad35266964c47e7780aa3eb545e66f5ab49b1641"),
    "bench-parallel_rus": (
        "9c1b8d2e7812addf",
        "56977c3cca8256ad669b7eea34cf287a96ca4f7b6be32d3cdb5c9dfa5b7e9d6d"),
    "bench-steane": (
        "abe4a7841a2c8af8",
        "47df7c955692586a0e781ecca89d5cf0b06b3fcdbf154b9c2f1c1b990fadedd6"),
    "dense8x300": (
        "9f5c36b4bc357b72",
        "6e7a910e6a210a6328953360820773da44a268e24ebb76055cd4ff4e0e56d6e8"),
    "reset20-mrce": (
        "1db2989de523ce78",
        "76b49d2f970e9980f47b119407a997df38573016870fa636ab4ebd89553a457f"),
    "reset20-plain": (
        "f72790acaa6ee41e",
        "8079f7fd03771797dedaf582a5a3ef4dff5283df7cc6ea7013aa2ce11c4e57b7"),
    "rus8": (
        "6a7b0b64b9cbc9b0",
        "7cab9a437f563e9f9a3f40caa4a9d7f807a0505c158a5b7245f9c3a608c3b89b"),
}


def test_front_end_outputs_pinned():
    import hashlib

    from qcpsim.core import decode_for_execution
    from qcpsim.metrics import program_hash
    progs = _front_end_programs()
    assert set(progs) == set(FRONT_END_PINS)
    for name, p in progs.items():
        decoded = hashlib.sha256(
            repr(decode_for_execution(p)).encode()).hexdigest()
        assert (program_hash(p), decoded) == FRONT_END_PINS[name], name


def test_lowering_reads_plain_int_fields_by_value():
    # validate_program accepts instructions built without enum members, so
    # the encoder and the lowering must read them the same way
    from dataclasses import replace

    from qcpsim.core import decode_for_execution
    p = parse_program("0 H q0\n1 RX q1, 0.5\n0 CNOT q0, q1\n2 MEAS q1 -> r3\n"
                      "MRCE r3, q0, NOP, X\nFMR r1, r3\nCMP r1, r2\n"
                      "BR.ne 0\nEND\n")
    plain = Program([
        replace(ins, kind=int(ins.kind), gate=int(ins.gate),
                cond=int(ins.cond), mrce_op0=int(ins.mrce_op0),
                mrce_op1=int(ins.mrce_op1),
                classical_op=(None if ins.classical_op is None
                              else int(ins.classical_op)))
        for ins in p.instructions], [], p.qubit_count)
    assert decode_for_execution(plain) == decode_for_execution(p)
    assert encode_program(plain) == encode_program(p)


@pytest.mark.parametrize("ins, message", [
    (Instruction(Kind.QUANTUM, timing_label=1024, gate=Gate.H, qubits=(0,)),
     "timing label 1024 does not fit 10 bits"),
    (Instruction(Kind.QUANTUM, gate=Gate.H, qubits=(64,)),
     "qubit index 64 does not fit 6 bits"),
    (Instruction(Kind.QUANTUM, timing_label=-1, gate=Gate.H, qubits=(0,)),
     "timing label -1 does not fit 10 bits"),
    (Instruction(Kind.QUANTUM, gate=Gate.H, qubits=(-1,)),
     "qubit index -1 does not fit 6 bits"),
    (Instruction(Kind.QUANTUM, gate=Gate.CNOT, qubits=(0, 64)),
     "qubit index 64 does not fit 6 bits"),
    (Instruction(Kind.QUANTUM, gate=Gate.MEAS, qubits=(0,), result_reg=32),
     "result register 32 does not fit 5 bits"),
])
def test_quantum_encoding_errors_pinned(ins, message):
    with pytest.raises(EncodingError) as e:
        encode_instruction(ins)
    assert str(e.value) == message


def test_parse_generated_programs_line_by_line():
    for name, p in _front_end_programs().items():
        text = print_program(p)
        again = parse_program(text)
        assert again == p, name
        # `.qubits` is line 1, so instruction pc sits on line pc + 2
        assert [ins.src_line for ins in again.instructions] == \
            list(range(2, len(again.instructions) + 2)), name
        assert len({id(ins) for ins in again.instructions}) == \
            len(again.instructions), name


def test_repeated_branch_lines_resolve_per_pc():
    # each line appears once before its label is defined and once after it
    p = parse_program("0 H q0\nJMP loop\nBR.eq loop\nJMP out\nloop:\n0 H q0\n"
                      "JMP loop\nBR.eq loop\nout:\nJMP out\n")
    assert [ins.target for ins in p.instructions] == [0, 4, 4, 7, 0, 4, 4, 7]
    assert [ins.src_line for ins in p.instructions] == [1, 2, 3, 4, 6, 7, 8, 10]
    p.instructions[1].target = 0
    assert p.instructions[5].target == 4


def test_repeated_lines_are_distinct_instructions():
    p = parse_program("0 H q0\n0 H q0\nLDI r1, 5\nLDI r1, 5\n")
    first, second, third, fourth = p.instructions
    first.qubits = (3,)
    third.imm = 9
    assert second.qubits == (0,) and fourth.imm == 5
    assert (first.src_line, second.src_line) == (1, 2)


@pytest.mark.parametrize("good", ["0 H q0", "LDI r1, 5", "JMP 0"])
def test_parse_error_after_repeats_keeps_its_line(good):
    bad = "0 CNOT q1, q1"
    with pytest.raises(ParseError) as e:
        parse_program("\n".join([good] * 50 + [bad]) + "\n")
    assert e.value.line_no == 51
    with pytest.raises(ParseError) as e:
        parse_program("\n".join([good] * 3 + [bad, good, bad]) + "\n")
    assert e.value.line_no == 4
