"""Golden digests: byte-exact outputs of a fixed set of runs.

Each case pins the sha256 of `report.to_json()`, `events_to_csv`,
`steps_to_csv` and the repr of the scheduler event list. Unlike the
benchmark's reference outputs, these are not put in a canonical order first,
so a change to the order of events or steps, to a float's formatting or to a
record's repr shows up here. A change that moves a digest must say why.
"""

from __future__ import annotations

import hashlib

import pytest

from qcpsim import (Engine, MachineConfig, QpuConfig, build_report,
                    events_to_csv, gen_active_reset_plus_rb, gen_dense,
                    gen_parallel_rus, gen_steane_syndrome, program_hash,
                    steps_to_csv)


def _programs():
    return {
        "rus8": gen_parallel_rus(8),
        "reset200": gen_active_reset_plus_rb(200, mrce=True),
        "dense8x50": gen_dense(8, 50),
        "steane": gen_steane_syndrome(),
    }


# case id -> (program, config); the two feedback programs are configured as
# in the benchmark's `feedback` workload
CASES = {}
for _seed in (1, 2, 3):
    CASES[f"rus8-seed{_seed}"] = (
        "rus8", MachineConfig(cores=4, seed=_seed,
                              qpu=QpuConfig(outcome_bias=0.3)))
    CASES[f"reset200-seed{_seed}"] = (
        "reset200", MachineConfig(superscalar_width=4, seed=_seed,
                                  qpu=QpuConfig(outcome_bias=0.5)))
for _width in (1, 4, 8):
    CASES[f"dense8x50-w{_width}"] = (
        "dense8x50", MachineConfig(superscalar_width=_width))
for _cores in (1, 6):
    CASES[f"steane-c{_cores}"] = (
        "steane", MachineConfig(cores=_cores, seed=1,
                                qpu=QpuConfig(outcome_bias=0.1)))
# width 4 lets a classical instruction and quantum followers share a cycle;
# width 1 never does
CASES["steane-c2-w4"] = (
    "steane", MachineConfig(cores=2, superscalar_width=4, seed=1,
                            qpu=QpuConfig(outcome_bias=0.1)))
CASES["reset200-w1"] = (
    "reset200", MachineConfig(superscalar_width=1, seed=1,
                              qpu=QpuConfig(outcome_bias=0.5)))


def digests(program, config) -> dict[str, str]:
    trace = Engine(program, config).run()
    report = build_report(trace, program_hash(program))

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    return {
        "report": sha(report.to_json()),
        "events": sha(events_to_csv(trace.events)),
        "steps": sha(steps_to_csv(report)),
        "sched": sha(repr(trace.scheduler_events)),
    }


GOLDEN = {
    "dense8x50-w1": {
        "report": "35ca0d8f1e5d3378d7251cd6e272e5e6ea5da6992e8d19e1564b9bdf723f34f3",
        "events": "7c66ca5dbe634e44b248536536ce594487d66bea986bf3731b58db5483a60172",
        "steps": "e3d5c6c65ec7db0febc6358c520a9efb13cfa02e1873929f17ab1e37ef2a31dc",
        "sched": "77f5895d219b0b070a2f9e82c6240a302c038193b43a51d07e24dab01d1bd544",
    },
    "dense8x50-w4": {
        "report": "d281a7b190654b9ef95bc41f2d21f15c4153b8b7418ce30fa2b88a972d8feeff",
        "events": "69a7a5dfb00b87355da5f08b0189b67f354816ae66c413c3ec79490ce03bb5d3",
        "steps": "00c871cee9160df183aa077a6ea25d2a13e441bc65464abb387028c22859d7c8",
        "sched": "b1225143d7964ebad51f7ce23642050a77e21feb17df157e5f38e185228e88e5",
    },
    "dense8x50-w8": {
        "report": "7415455ff26cf86fc09387ac1eb34ab4ab5975fad9fca1c3fcfb31f40d2a9477",
        "events": "f9a65e203c8f812c46178a8d85a79e8b41335587051459199ac96be4c5f3a666",
        "steps": "069d645bcac3b9fc9b1fa087d448cb0c8cb901e3846deb960aa9966ac83a3d91",
        "sched": "8044803d0d3aa96c4312f1fa438cc7e8baf8a4aab017b93d182f823d8fe0c6f4",
    },
    "reset200-w1": {
        "report": "1ce989783eff61893c392278b68193e745fb9b9a41a3827cb826ccc594de54fc",
        "events": "516fc185a17d41b8d6bb8ee8adb1a9bd858d928868d2e09850a7b6b0d9b21877",
        "steps": "6750bc5442ec14b917abdbcd272a4ac14dda805e1d2abaef4382ca479c0390a4",
        "sched": "82760cb55d71497717f07b46c9fce6c6a3f06179fc261a6b48efe9d853a6e8a5",
    },
    "reset200-seed1": {
        "report": "52da9a3377df6991c258bb0cf77416eee741233bfc641cea98ab2d567fc08a6d",
        "events": "516fc185a17d41b8d6bb8ee8adb1a9bd858d928868d2e09850a7b6b0d9b21877",
        "steps": "214aff4cef3963481b9a3c37cda4be72c2ee0f12d7144b0d2d549b32a15b7c6a",
        "sched": "82760cb55d71497717f07b46c9fce6c6a3f06179fc261a6b48efe9d853a6e8a5",
    },
    "reset200-seed2": {
        "report": "100a55a734610257c9c74ba0f70280eb03750c05af8fa2525f6fb1ebc9b03d0c",
        "events": "516fc185a17d41b8d6bb8ee8adb1a9bd858d928868d2e09850a7b6b0d9b21877",
        "steps": "214aff4cef3963481b9a3c37cda4be72c2ee0f12d7144b0d2d549b32a15b7c6a",
        "sched": "82760cb55d71497717f07b46c9fce6c6a3f06179fc261a6b48efe9d853a6e8a5",
    },
    "reset200-seed3": {
        "report": "5c38b41773d976fd501210b8a91594acaf62c21b75fcd4b570a8c3cbaa0afc47",
        "events": "516fc185a17d41b8d6bb8ee8adb1a9bd858d928868d2e09850a7b6b0d9b21877",
        "steps": "214aff4cef3963481b9a3c37cda4be72c2ee0f12d7144b0d2d549b32a15b7c6a",
        "sched": "82760cb55d71497717f07b46c9fce6c6a3f06179fc261a6b48efe9d853a6e8a5",
    },
    "rus8-seed1": {
        "report": "84a378183f9a95cb58e417cb75a38f376f755d9c0f3505480f06c126990116eb",
        "events": "eb72388dd6f0f37b1b8e58f0600177f802bf1031882eb7a797b16cc76526508a",
        "steps": "e8b8c4c7fd6fc9f571cf4f2837fcb51a589627fb8826100cdfc192338d2c4c17",
        "sched": "2d3800fbb89258460339b4cbe5f5036a20f21d1569632cac3f46e426121f0009",
    },
    "rus8-seed2": {
        "report": "7050828d7a68923d0102b4b91e8fc1d235b975e1b120e5ee41e8e48dd33a3330",
        "events": "f66de3c8c353f466d455e11309fc97996de05ed2731f10b9aa3b0ab62214d49e",
        "steps": "ae16bb85ca9981a70c7a6ce60fd538c5a35a3399e7ad278bc1fff0d14a79b9f4",
        "sched": "85057b11b6cc7fa09193480d3d2ce1bb9937a85a940a0384cc576691b4a3c59a",
    },
    "rus8-seed3": {
        "report": "ec39b5e1f995d81d5b406d3abada023878bcd1ecd0ab1a2a77283145827977bf",
        "events": "60b7b3089d71c07f6b7084833fe7267abc9d1cd6909ad71923da825fa4d2e12a",
        "steps": "38531a72abcd305f41c9c24c85657bdf3b4fd974c52b181bee3de0b283ad8996",
        "sched": "b7dba164ebfa0d7db8d63253c0f0ebe29b77fd98383a02abcb450bbd712ebc7e",
    },
    "steane-c1": {
        "report": "227133c6e769441acfb12f64fefb10dfd5e1138e256d186505175b3be6ccf73e",
        "events": "a6868847670905049f055f72f76e621beaae134925d0bc9080c257d9ce22db76",
        "steps": "be70a2e24c810412317a40dcbc42193529eaadbadf7f1f15ca4843bf7117f14f",
        "sched": "b6e2e3d71c98573bf0259993bc88a38ed99f1d4ec75804566e747a5aa07f644d",
    },
    "steane-c2-w4": {
        "report": "94cb63ad034fb35b8f45844d4f27a73764cf2b431a4b397e40ad22b94136ce2b",
        "events": "6411d3b82b41489c5650497d4f7f27c4adf5dd2272a3890e02331a0dab0ca767",
        "steps": "b53258385db1cf9ee7004a2301ec5a1701648702d5464518b0e5f3bf09cab093",
        "sched": "3b3e899c926f0a9a282ad74da226d422ad2e74493696dabea51f8ee3a3a0a237",
    },
    "steane-c6": {
        "report": "15396de6a22f3eacbd9966a50ed98fd392502ef6d23f1f6d9b69d40f89141eb9",
        "events": "a3ccb049dd8740c60c44b93ec20bcfb84bc49f12873d12065a51c72c0f64fbde",
        "steps": "9b4cd6845bf1556a26f6eada5377723cbc13bb4b447ca42e523b7f2ea583c4f7",
        "sched": "7940f1c18346d99ea4745d166b1982e12ca4478d69e5e26e67d5b17e89ae0bf1",
    },
}


@pytest.fixture(scope="module")
def programs():
    return _programs()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case, programs):
    name, config = CASES[case]
    assert digests(programs[name], config) == GOLDEN[case]
