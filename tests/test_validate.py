"""Static validation: exact diagnostics, and how often the run path validates
and hashes a program."""

import json
import sys
from dataclasses import replace

import pytest

import qcpsim
from qcpsim import cli, isa
from qcpsim.bench import (ExperimentSpec, gen_dense, gen_parallel_rus,
                          sweep_cores)
from qcpsim.blocks import build_table
from qcpsim.config import MachineConfig
from qcpsim.engine import Engine, PreparedProgram, ValidationFault
from qcpsim.isa import (MAX_BLOCKS, BlockDirective, ClassicalOp, Diagnostic,
                        Gate, Instruction, Kind, Program, decode_program,
                        encode_program, parse_program, validate_program)
from qcpsim.qpu import QpuConfig
from test_bench import _count_engine_runs


def _diags(text, budget=None, binary=False):
    p = parse_program(text)
    if binary:  # the binary container keeps no source lines: `pc N` locations
        p = decode_program(encode_program(p))
    return [str(d) for d in validate_program(p, budget)]


_CAPACITY = (".qubits 1\n" + "0 H q0\n" * (MAX_BLOCKS + 1)
             + "".join(f".block b{i} start={i} end={i} deps=none\n"
                       for i in range(MAX_BLOCKS + 1)))

_EVERYTHING = "\n".join([
    ".qubits 2",
    "0 H q0",
    "FMR r1, r9",
    "JMP 0",
    "0 X q5",
    "BR.eq 7",
    "MRCE r3, q4, NOP, X",
    "END",
    "0 H q1",
    ".block a start=0 end=3 deps=a+ghost",
    ".block b start=2 end=5 deps=c",
    ".block a start=7 end=6 deps=none",
    ".block c start=6 end=9 deps=b",
]) + "\n"

# (text, qubit budget, through the binary container, exact diagnostics)
PINNED = {
    "capacity": (_CAPACITY, None, False, [
        "block table: block table capacity exceeded (65 > 64)"]),
    "qubit_range": (".qubits 2\n0 H q0\n0 CNOT q1, q3\n0 X q2\n", None, False, [
        "line 3: qubit q3 out of range (2)",
        "line 4: qubit q2 out of range (2)"]),
    "qubit_budget": (".qubits 4\n0 H q0\n0 CZ q2, q1\n0 MEAS q3 -> r0\n", 1,
                     False, [
        "line 3: qubit q2 out of range (1)",
        "line 3: qubit q1 out of range (1)",
        "line 4: qubit q3 out of range (1)"]),
    "qubit_budget_pc": (".qubits 4\n0 H q0\n0 CZ q2, q1\n0 MEAS q3 -> r0\n", 2,
                        True, [
        "pc 1: qubit q2 out of range (2)",
        "pc 2: qubit q3 out of range (2)"]),
    "mrce_target": (".qubits 1\n0 MEAS q0 -> r0\nMRCE r0, q3, NOP, X\n", None,
                    False, [
        "line 3: qubit q3 out of range (1)"]),
    "duplicate_name": ("0 H q0\n0 H q0\n.block a start=0 end=0 deps=none\n"
                       ".block a start=1 end=1 deps=none\n", None, False, [
        "line 4: duplicate block name 'a'"]),
    "start_after_end": ("0 H q0\n0 H q0\n.block a start=0 end=0 deps=none\n"
                        ".block b start=1 end=0 deps=none\n", None, False, [
        "line 4: pc_start exceeds pc_end",
        "pc 1: instruction not covered by any block"]),
    "past_end": ("0 H q0\n0 H q0\n.block a start=0 end=0 deps=none\n"
                 ".block b start=1 end=5 deps=none\n", None, False, [
        "line 4: block range exceeds program length",
        "pc 1: instruction not covered by any block"]),
    "past_end_no_instructions": (".block a start=0 end=0 deps=none\n", None,
                                 False, [
        "line 1: block range exceeds program length"]),
    "overlap": ("0 H q0\n0 H q0\n0 H q0\n.block a start=0 end=1 deps=none\n"
                ".block b start=1 end=2 deps=none\n", None, False, [
        "line 5: block ranges overlap"]),
    # s2 overlaps big, not its neighbour s1: both small blocks are reported
    "overlap_neighbours": ("0 H q0\n" * 5
                           + ".block big start=0 end=4 deps=none\n"
                           ".block s1 start=1 end=1 deps=none\n"
                           ".block s2 start=3 end=3 deps=none\n", None, False, [
        "line 7: block ranges overlap",
        "line 8: block ranges overlap"]),
    "first_uncovered": ("0 H q0\n" * 5 + ".block a start=0 end=0 deps=none\n"
                        ".block b start=3 end=4 deps=none\n", None, False, [
        "pc 1: instruction not covered by any block"]),
    "unresolved_and_self": ("0 H q0\n0 H q0\n"
                            ".block a start=0 end=0 deps=ghost\n"
                            ".block b start=1 end=1 deps=b\n", None, False, [
        "line 3: unresolved dependency 'ghost'",
        "line 4: block depends on itself",
        "block table: dependency cycle detected"]),
    "cycle": ("0 H q0\n0 H q0\n.block a start=0 end=0 deps=b\n"
              ".block b start=1 end=1 deps=a\n", None, False, [
        "block table: dependency cycle detected"]),
    "branch_target": ("0 H q0\nJMP 5\n0 H q0\nBR.eq 0\nEND\n"
                      ".block a start=0 end=2 deps=none\n"
                      ".block b start=3 end=4 deps=none\n", None, False, [
        "line 2: branch target 5 outside block 'a'",
        "line 4: branch target 0 outside block 'b'"]),
    # a branch inside two overlapping blocks is checked against each
    "branch_in_two_blocks": ("0 H q0\nJMP 9\n0 H q0\nEND\n"
                             ".block x start=0 end=2 deps=none\n"
                             ".block y start=1 end=3 deps=none\n", None, False, [
        "line 6: block ranges overlap",
        "line 2: branch target 9 outside block 'x'",
        "line 2: branch target 9 outside block 'y'"]),
    "priority_blocks": ("0 H q0\nJMP 3\n0 H q0\nEND\n0 H q0\n"
                        ".block x start=0 end=2 prio=0\n"
                        ".block y start=1 end=3 prio=1\n", None, False, [
        "line 7: block ranges overlap",
        "pc 4: instruction not covered by any block",
        "line 2: branch target 3 outside block 'x'"]),
    "never_produced": ("0 MEAS q0 -> r2\nFMR r1, r5\nFMR r1, r2\n"
                       "MRCE r7, q0, NOP, X\n", None, False, [
        "line 2: result register r5 never produced",
        "line 4: result register r7 never produced"]),
    "never_produced_pc": ("0 MEAS q0 -> r2\nFMR r1, r5\nFMR r1, r2\n"
                          "MRCE r7, q0, NOP, X\n", None, True, [
        "pc 1: result register r5 never produced",
        "pc 3: result register r7 never produced"]),
    "everything": (_EVERYTHING, None, False, [
        "line 5: qubit q5 out of range (2)",
        "line 7: qubit q4 out of range (2)",
        "line 12: duplicate block name 'a'",
        "line 12: pc_start exceeds pc_end",
        "line 13: block range exceeds program length",
        "line 11: block ranges overlap",
        "pc 6: instruction not covered by any block",
        "line 10: block depends on itself",
        "line 10: unresolved dependency 'ghost'",
        "block table: dependency cycle detected",
        "line 4: branch target 0 outside block 'b'",
        "line 6: branch target 7 outside block 'b'",
        "line 3: result register r9 never produced",
        "line 7: result register r3 never produced"]),
    "everything_pc": (_EVERYTHING, 3, True, [
        "pc 3: qubit q5 out of range (3)",
        "pc 5: qubit q4 out of range (3)",
        "block a: duplicate block name 'a'",
        "block a: pc_start exceeds pc_end",
        "block c: block range exceeds program length",
        "block b: block ranges overlap",
        "pc 6: instruction not covered by any block",
        "block a: block depends on itself",
        "block a: unresolved dependency 'ghost'",
        "block table: dependency cycle detected",
        "pc 2: branch target 0 outside block 'b'",
        "pc 4: branch target 7 outside block 'b'",
        "pc 1: result register r9 never produced",
        "pc 5: result register r3 never produced"]),
    "clean": ("0 MEAS q0 -> r0\nFMR r1, r0\nMRCE r0, q1, NOP, X\nEND\n", None,
              False, []),
    "empty": ("", None, False, []),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_diagnostics_pinned(case):
    text, budget, binary, expected = PINNED[case]
    assert _diags(text, budget, binary) == expected


def test_zero_budget_means_program_qubit_count():
    text = ".qubits 2\n0 H q0\n0 CNOT q1, q3\n"
    assert _diags(text, 0) == _diags(text) == ["line 3: qubit q3 out of range (2)"]


def test_plain_int_fields_compare_by_value():
    # instructions built without enum members validate like parsed ones
    p = Program([
        Instruction(int(Kind.QUANTUM), gate=int(Gate.MEAS), qubits=(0,),
                    result_reg=1),
        Instruction(int(Kind.CLASSICAL), classical_op=int(ClassicalOp.FMR),
                    result_reg=2),
        Instruction(int(Kind.CLASSICAL), classical_op=int(ClassicalOp.JMP),
                    target=7),
        Instruction(int(Kind.MRCE), result_reg=1, mrce_target=4),
        Instruction(int(Kind.END_BLOCK)),
    ], [], 2)
    assert [str(d) for d in validate_program(p)] == [
        "pc 3: qubit q4 out of range (2)",
        "pc 2: branch target 7 outside block 'main'",
        "pc 1: result register r2 never produced"]


_SAME_RANGE = ("0 H q0\n0 H q0\n.block a start=0 end=1 deps=none\n"
               ".block b start=0 end=1 deps=none\n")


def test_same_range_blocks_overlap():
    assert _diags(_SAME_RANGE) == ["line 4: block ranges overlap"]
    assert _diags(_SAME_RANGE, binary=True) == ["block b: block ranges overlap"]


def test_negative_block_start_rejected():
    text = ("0 H q0\n0 X q0\nJMP 0\n.block a start=-1 end=1 deps=none\n"
            ".block b start=2 end=2 deps=none\n")
    assert _diags(text) == ["line 4: block range starts before pc 0",
                            "pc 0: instruction not covered by any block",
                            "line 3: branch target 0 outside block 'b'"]


def test_cli_run_same_range_blocks_exits_1(tmp_path, capsys):
    asm = tmp_path / "same.qasm"
    asm.write_text(_SAME_RANGE)
    assert cli.main(["run", str(asm)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == "error: line 4: block ranges overlap\n"


# ── validations per run ─────────────────────────────────────────────

def _count_calls(monkeypatch, name: str) -> list:
    """Count calls of `isa.<name>` through every binding in the package."""
    calls = []
    orig = getattr(isa, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "qcpsim" or mod_name.startswith("qcpsim."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counting)
    assert getattr(qcpsim, name) is counting
    return calls


@pytest.fixture
def validate_calls(monkeypatch):
    return _count_calls(monkeypatch, "validate_program")


@pytest.fixture
def encode_calls(monkeypatch):
    return _count_calls(monkeypatch, "encode_program")


def test_engine_validates_once(validate_calls):
    Engine(gen_parallel_rus(2), MachineConfig(cores=2))
    assert len(validate_calls) == 1


def test_build_table_does_not_validate(validate_calls):
    build_table(gen_parallel_rus(2))
    assert validate_calls == []


def test_sweep_cores_validates_once(validate_calls):
    spec = ExperimentSpec(gen_parallel_rus(2), repetitions=2, bias=0.1)
    out = sweep_cores(spec, MachineConfig(), [1, 2, 4, 6])
    assert sorted(out) == [1, 2, 4, 6]
    assert len(validate_calls) == 1


def test_prepared_program_hashes_once(encode_calls):
    p = gen_parallel_rus(2)
    prepared = PreparedProgram(p)
    assert encode_calls == []           # computed on first use
    first = prepared.program_hash
    assert prepared.program_hash == first
    assert len(encode_calls) == 1
    assert first == qcpsim.program_hash(p)


def test_sweep_cores_hashes_once(encode_calls):
    spec = ExperimentSpec(gen_parallel_rus(2), repetitions=2, bias=0.1)
    out = sweep_cores(spec, MachineConfig(), [1, 2, 4, 6])
    assert len({r.program_hash for r in out.values()}) == 1
    assert len(encode_calls) == 1


def test_cli_bench_ideal_hashes_once(encode_calls, capsys):
    # four sweep cells and four ideal runs share one prepared program
    assert cli.main(["bench", "parallel_rus", "n=2", "--cores", "1,2,4,6",
                     "--seeds", "2", "--ideal"]) == cli.EXIT_OK
    assert "ideal_speedup" in capsys.readouterr().out
    assert len(encode_calls) == 1


def test_cli_run_hashes_once(encode_calls, tmp_path, capsys):
    asm = tmp_path / "prog.qasm"
    asm.write_text("0 H q0\n2 MEAS q0 -> r0\nFMR r1, r0\nEND\n")
    assert cli.main(["run", str(asm)]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert len(encode_calls) == 1
    phash = qcpsim.program_hash(parse_program(asm.read_text()))
    assert report["program_hash"] == phash


def test_cli_run_validates_once(validate_calls, tmp_path, capsys):
    asm = tmp_path / "prog.qasm"
    asm.write_text("0 H q0\n2 MEAS q0 -> r0\nFMR r1, r0\nEND\n")
    assert cli.main(["run", str(asm)]) == cli.EXIT_OK
    assert '"issue_count": 2' in capsys.readouterr().out
    assert len(validate_calls) == 1


def test_cli_compare_validates_once(validate_calls, tmp_path, capsys):
    asm = tmp_path / "prog.qasm"
    asm.write_text("0 H q0\n2 MEAS q0 -> r0\nFMR r1, r0\nEND\n")
    base = tmp_path / "base.json"
    base.write_text(MachineConfig().to_json())
    variant = tmp_path / "variant.json"
    variant.write_text(MachineConfig(superscalar_width=4).to_json())
    assert cli.main(["compare", str(asm), "--base", str(base),
                     "--variant", str(variant), "--seeds", "2"]) == cli.EXIT_OK
    assert '"speedup"' in capsys.readouterr().out
    assert len(validate_calls) == 1


def test_cli_run_reports_every_diagnostic(tmp_path, capsys):
    asm = tmp_path / "bad.qasm"
    asm.write_text(".qubits 4\n0 H q3\nFMR r1, r5\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(MachineConfig(qpu=qcpsim.QpuConfig(qubit_count=2)).to_json())
    assert cli.main(["run", str(asm), "--config", str(cfg)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: line 2: qubit q3 out of range (2)\n"
        "error: line 3: result register r5 never produced\n")


def test_machine_too_small_is_a_diagnostic():
    # a program prepared without a budget, run on a machine with fewer qubits
    prepared = PreparedProgram(gen_dense(4, 2))
    with pytest.raises(ValidationFault) as info:
        Engine(prepared, MachineConfig(qpu=QpuConfig(qubit_count=2)))
    [d] = info.value.diagnostics
    assert isinstance(d, Diagnostic)
    assert d.where == "machine"
    assert d.message == "program uses 4 qubits, machine has 2"
    assert str(info.value) == "machine: program uses 4 qubits, machine has 2"


@pytest.mark.parametrize("source", [
    ".qubits 2\n0 H q0\n1 H q5\nEND\n",
    ".qubits 2\n0 MEAS q0 -> r0\nMRCE r0, q5, NOP, X\nEND\n"])
def test_machine_without_a_used_qubit_is_a_diagnostic(source, tmp_path,
                                                      capsys, monkeypatch):
    # a qubit budget lets a `.qubits 2` program name q5, which a machine
    # sized from the declared count lacks; the engine rejects the program
    # before it runs, and `compare` with such a variant before it runs the
    # base
    runs = _count_engine_runs(monkeypatch)
    message = "machine: program uses qubit q5, machine has 2"
    prepared = PreparedProgram(parse_program(source), 8)
    with pytest.raises(ValidationFault) as info:
        Engine(prepared, MachineConfig())
    assert str(info.value) == message
    asm = tmp_path / "p.qasm"
    asm.write_text(source)
    base = tmp_path / "base.json"
    base.write_text(MachineConfig(qpu=QpuConfig(qubit_count=8)).to_json())
    variant = tmp_path / "variant.json"
    variant.write_text(MachineConfig().to_json())
    assert cli.main(["compare", str(asm), "--base", str(base), "--variant",
                     str(variant)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"
    assert runs == []


@pytest.mark.parametrize("gate, qubits, message", [
    (Gate.H, (0, 1), "H takes one qubit, got q0, q1"),
    (Gate.RX, (), "RX takes one qubit, got none"),
    (Gate.MEAS, (0, 1), "MEAS takes one qubit, got q0, q1"),
    (Gate.X, (), "X takes one qubit, got none"),
    (Gate.CZ, (1,), "CZ takes two distinct qubits, got q1"),
    (Gate.CNOT, (1, 1), "CNOT takes two distinct qubits, got q1, q1"),
    (Gate.CNOT, (0, 1, 0), "CNOT takes two distinct qubits, got q0, q1, q0"),
    (Gate.NOP, (0,), "NOP is not a quantum instruction"),
])
def test_gate_arity_is_a_diagnostic(gate, qubits, message):
    # built through the API, which the parser's operand checks never see;
    # `program_hash` cannot encode such an instruction
    bad = Instruction(Kind.QUANTUM, gate=gate, qubits=qubits)
    p = Program([Instruction(Kind.QUANTUM, gate=Gate.H, qubits=(0,)), bad,
                 bad], [], 2)
    assert [str(d) for d in validate_program(p)] == [
        f"pc 1: {message}", f"pc 2: {message}"]
    with pytest.raises(ValidationFault):
        PreparedProgram(p)


def _mixed_styles(prio_first: bool) -> Program:
    # the parser refuses a program that mixes the styles; an API-built one
    # or its binary container does not
    styles = [{"priority": 0}, {"deps": ()}]
    if not prio_first:
        styles.reverse()
    body = [Instruction(Kind.QUANTUM, gate=Gate.H, qubits=(0,)),
            Instruction(Kind.END_BLOCK),
            Instruction(Kind.QUANTUM, gate=Gate.H, qubits=(1,)),
            Instruction(Kind.END_BLOCK)]
    return Program(body, [BlockDirective("a", 0, 1, **styles[0]),
                          BlockDirective("b", 2, 3, **styles[1])], 2)


@pytest.mark.parametrize("prio_first", [True, False])
def test_mixed_block_styles_are_a_diagnostic(prio_first):
    p = _mixed_styles(prio_first)
    message = "mixed deps/prio styles in one program"
    assert [str(d) for d in validate_program(p)] == [f"block b: {message}"]
    binary = decode_program(encode_program(p))
    assert [str(d) for d in validate_program(binary)] == [
        f"block b: {message}"]
    both = replace(p, block_directives=[
        BlockDirective("a", 0, 1, deps=(), priority=0),
        BlockDirective("b", 2, 3, deps=(), priority=0)])
    assert [str(d) for d in validate_program(both)] == [
        f"block a: {message}", f"block b: {message}"]


def test_cli_run_mixed_style_binary_exits_1(tmp_path, capsys):
    # at a priority block first, the run would compare a direct block's
    # missing priority with an integer
    path = tmp_path / "mixed.bin"
    path.write_bytes(encode_program(_mixed_styles(True)))
    assert cli.main(["run", str(path)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: block b: mixed deps/prio styles in one program\n")


def _op(op, **fields):
    return Instruction(Kind.CLASSICAL, classical_op=op, **fields)


@pytest.mark.parametrize("bad, messages", [
    # binary words hold these MRCE operands, and the run issued them
    (Instruction(Kind.MRCE, result_reg=0, mrce_target=1, mrce_op0=Gate.CNOT,
                 mrce_op1=Gate.MEAS),
     ["CNOT is not a conditional-exec op",
      "MEAS is not a conditional-exec op"]),
    (Instruction(Kind.MRCE, result_reg=40, mrce_target=1),
     ["register r40 out of range (32)",
      "result register r40 never produced"]),
    (Instruction(Kind.MRCE, result_reg=0, mrce_target=-1),
     ["qubit q-1 out of range (2)"]),
    (Instruction(Kind.QUANTUM, gate=Gate.MEAS, qubits=(1,), result_reg=33),
     ["register r33 out of range (32)"]),
    (Instruction(Kind.QUANTUM, gate=Gate.H, qubits=(-1,)),
     ["qubit q-1 out of range (2)"]),
    (Instruction(Kind.QUANTUM, gate=Gate.CZ, qubits=(-2, 1)),
     ["qubit q-2 out of range (2)"]),
    (_op(ClassicalOp.FMR, rd=32, result_reg=0),
     ["register r32 out of range (32)"]),
    (_op(ClassicalOp.ADD, rd=1, ra=-1, rb=99),
     ["register r-1 out of range (32)", "register r99 out of range (32)"]),
    (_op(ClassicalOp.CMP, ra=0, rb=-9), ["register r-9 out of range (32)"]),
    (_op(ClassicalOp.BR, cond=9, target=0),
     ["branch condition 9 out of range (6)"]),
    (_op(ClassicalOp.BR, cond=-1, target=0),
     ["branch condition -1 out of range (6)"]),
    (_op(ClassicalOp.LDI, rd=1, imm=1 << 20),
     ["immediate 1048576 does not fit 21 bits"]),
    (_op(ClassicalOp.LDI, rd=1, imm=-(1 << 20) - 1),
     ["immediate -1048577 does not fit 21 bits"]),
    (_op(None), ["classical op None does not exist"]),
])
def test_operand_out_of_range_is_a_diagnostic(bad, messages):
    # each runs wrongly or fails after the run when it is not caught here
    p = Program([Instruction(Kind.QUANTUM, gate=Gate.MEAS, qubits=(0,)), bad,
                 Instruction(Kind.END_BLOCK)], [], 2)
    assert [str(d) for d in validate_program(p)] == [
        f"pc 1: {m}" for m in messages]
    with pytest.raises(ValidationFault):
        PreparedProgram(p)


def test_widest_operands_validate():
    p = Program([Instruction(Kind.QUANTUM, gate=Gate.MEAS, qubits=(1,),
                             result_reg=31),
                 _op(ClassicalOp.LDI, rd=31, imm=(1 << 20) - 1),
                 _op(ClassicalOp.LDI, rd=0, imm=-(1 << 20)),
                 _op(ClassicalOp.BR, cond=5, target=0),
                 Instruction(Kind.MRCE, result_reg=31, mrce_target=1,
                             mrce_op0=Gate.H, mrce_op1=Gate.Z),
                 Instruction(Kind.END_BLOCK)], [], 2)
    assert validate_program(p) == []
    assert decode_program(encode_program(p)) == p
