"""Golden digests: byte-exact outputs of a fixed set of runs.

Each case pins the sha256 of `report.to_json()`, `events_to_csv`,
`steps_to_csv` and the reprs of the scheduler event list and the block
spans. Unlike the
benchmark's reference outputs, these are not put in a canonical order first,
so a change to the order of events or steps, to a float's formatting or to a
record's repr shows up here. A change that moves a digest must say why. To
print the table for the current code, run
`PYTHONPATH=src python tests/test_golden.py`.
"""

from __future__ import annotations

import hashlib

import pytest

from qcpsim import (Engine, IssueEvent, MachineConfig, QpuConfig,
                    SchedulerEvent, StepMetrics, StepRecord, build_report,
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
        "spans": sha(repr(trace.block_spans)),
    }


GOLDEN = {
    "dense8x50-w1": {
        "report": "35ca0d8f1e5d3378d7251cd6e272e5e6ea5da6992e8d19e1564b9bdf723f34f3",
        "events": "7c66ca5dbe634e44b248536536ce594487d66bea986bf3731b58db5483a60172",
        "steps": "e3d5c6c65ec7db0febc6358c520a9efb13cfa02e1873929f17ab1e37ef2a31dc",
        "sched": "77f5895d219b0b070a2f9e82c6240a302c038193b43a51d07e24dab01d1bd544",
        "spans": "72f0dbe00f671e7dd8f9d158ac9278f33fd2b0865f61191badfa8bf5a347a66b",
    },
    "dense8x50-w4": {
        "report": "d281a7b190654b9ef95bc41f2d21f15c4153b8b7418ce30fa2b88a972d8feeff",
        "events": "69a7a5dfb00b87355da5f08b0189b67f354816ae66c413c3ec79490ce03bb5d3",
        "steps": "00c871cee9160df183aa077a6ea25d2a13e441bc65464abb387028c22859d7c8",
        "sched": "b1225143d7964ebad51f7ce23642050a77e21feb17df157e5f38e185228e88e5",
        "spans": "e240ab693e4ac8933d725db4a68c5cda4c5dde0b928b5853400f45478e1f0c8d",
    },
    "dense8x50-w8": {
        "report": "7415455ff26cf86fc09387ac1eb34ab4ab5975fad9fca1c3fcfb31f40d2a9477",
        "events": "f9a65e203c8f812c46178a8d85a79e8b41335587051459199ac96be4c5f3a666",
        "steps": "069d645bcac3b9fc9b1fa087d448cb0c8cb901e3846deb960aa9966ac83a3d91",
        "sched": "8044803d0d3aa96c4312f1fa438cc7e8baf8a4aab017b93d182f823d8fe0c6f4",
        "spans": "ca587f0b460187223b87d212de0f5cea827d7d49c70d09f7eb4f4dc33e78baf1",
    },
    "reset200-seed1": {
        "report": "52da9a3377df6991c258bb0cf77416eee741233bfc641cea98ab2d567fc08a6d",
        "events": "516fc185a17d41b8d6bb8ee8adb1a9bd858d928868d2e09850a7b6b0d9b21877",
        "steps": "214aff4cef3963481b9a3c37cda4be72c2ee0f12d7144b0d2d549b32a15b7c6a",
        "sched": "82760cb55d71497717f07b46c9fce6c6a3f06179fc261a6b48efe9d853a6e8a5",
        "spans": "380c1c5518d1e74c14af3f5d5158f3781514ddfd2f529ab16110cdc53ab1b623",
    },
    "reset200-seed2": {
        "report": "100a55a734610257c9c74ba0f70280eb03750c05af8fa2525f6fb1ebc9b03d0c",
        "events": "516fc185a17d41b8d6bb8ee8adb1a9bd858d928868d2e09850a7b6b0d9b21877",
        "steps": "214aff4cef3963481b9a3c37cda4be72c2ee0f12d7144b0d2d549b32a15b7c6a",
        "sched": "82760cb55d71497717f07b46c9fce6c6a3f06179fc261a6b48efe9d853a6e8a5",
        "spans": "380c1c5518d1e74c14af3f5d5158f3781514ddfd2f529ab16110cdc53ab1b623",
    },
    "reset200-seed3": {
        "report": "5c38b41773d976fd501210b8a91594acaf62c21b75fcd4b570a8c3cbaa0afc47",
        "events": "516fc185a17d41b8d6bb8ee8adb1a9bd858d928868d2e09850a7b6b0d9b21877",
        "steps": "214aff4cef3963481b9a3c37cda4be72c2ee0f12d7144b0d2d549b32a15b7c6a",
        "sched": "82760cb55d71497717f07b46c9fce6c6a3f06179fc261a6b48efe9d853a6e8a5",
        "spans": "380c1c5518d1e74c14af3f5d5158f3781514ddfd2f529ab16110cdc53ab1b623",
    },
    "reset200-w1": {
        "report": "1ce989783eff61893c392278b68193e745fb9b9a41a3827cb826ccc594de54fc",
        "events": "516fc185a17d41b8d6bb8ee8adb1a9bd858d928868d2e09850a7b6b0d9b21877",
        "steps": "6750bc5442ec14b917abdbcd272a4ac14dda805e1d2abaef4382ca479c0390a4",
        "sched": "82760cb55d71497717f07b46c9fce6c6a3f06179fc261a6b48efe9d853a6e8a5",
        "spans": "380c1c5518d1e74c14af3f5d5158f3781514ddfd2f529ab16110cdc53ab1b623",
    },
    "rus8-seed1": {
        "report": "3e6e200105e3ca9124d6df589090b5cee1d1cb1dfe51e0d862d65fa8cc7c401f",
        "events": "cd363c174a331cb7718f511cad1d8df32ad4cbb38ad6887749451f64085df430",
        "steps": "107bb1087130ed226489b9135375e83d9c6094adc9489f73f8f26651ee379361",
        "sched": "2d3800fbb89258460339b4cbe5f5036a20f21d1569632cac3f46e426121f0009",
        "spans": "0deaa653573d6381fa84df25240769a5f9b9f13c22289bce7b4a11a5c00de5f9",
    },
    "rus8-seed2": {
        "report": "b3416fd4dd1a1b8badf6c856920f1f94b27d54bf5ceb4f87ff1a7ac1ea4ecc19",
        "events": "66866ecd5b45c7f45a97e7b0e02810821ca7d0c55d4e04d39e43339df8665cb8",
        "steps": "a04b6a0b54e10dbaf9a6bcdb384b824146fdc7fbf0a4dc553e29b823a98f9ec0",
        "sched": "85057b11b6cc7fa09193480d3d2ce1bb9937a85a940a0384cc576691b4a3c59a",
        "spans": "0f22ac34d0d97b0d1c0f33c643a8a74f1aaf0e62186cb67447ef1d9879fbf403",
    },
    "rus8-seed3": {
        "report": "5592b766878f8a5c50b0e2392a19a450c1812045a142be3c0ad88cd6b775f555",
        "events": "019e57cf663d2d7f0a663a784d0111a892a1f2828a8c1bff4175c935ff1a8b86",
        "steps": "97abf62b4d85798beed941dfc160c4a095bba8a3d143de625d36f59a9a53a4a8",
        "sched": "b7dba164ebfa0d7db8d63253c0f0ebe29b77fd98383a02abcb450bbd712ebc7e",
        "spans": "54ef10ac8b4856036ce65487ad0c0fe0be1b4a6c709611e8babbc3fc6f617218",
    },
    "steane-c1": {
        "report": "227133c6e769441acfb12f64fefb10dfd5e1138e256d186505175b3be6ccf73e",
        "events": "a6868847670905049f055f72f76e621beaae134925d0bc9080c257d9ce22db76",
        "steps": "be70a2e24c810412317a40dcbc42193529eaadbadf7f1f15ca4843bf7117f14f",
        "sched": "b6e2e3d71c98573bf0259993bc88a38ed99f1d4ec75804566e747a5aa07f644d",
        "spans": "d5b82de05cdc2e723ab76165d7ff37e748f89960910ab38c226303cd7f89537b",
    },
    "steane-c2-w4": {
        "report": "af7279429f444166643f11d24426fd2816c3ed5160a556a0d880197bbeb42ae2",
        "events": "5e5f35eff109543f5f9f5ca622aee9435d814af9ceea7adcb0ce7e05c22cef6c",
        "steps": "08321941472644064113cc031b32e923114445c540a0967aa9ade486608ab8f7",
        "sched": "0f9c0d74f06e2e76e6ece9313da8275cae935ade988e62cc69007a6c2ea5262a",
        "spans": "748e2e4aaf19bb0a6abff0fb65e9be7956a297f48f48c5ff128822f0ee11445b",
    },
    "steane-c6": {
        "report": "d29055e4b6d2fd9338ffcbba823919a7015d5ad934969b7494c5e6dee66abfb3",
        "events": "34af33b7757c35a561ee98aea0b9a8ed71d5009e99fcb9993a54d6b5f5641c7e",
        "steps": "2334f2ab795b06a3ec82d611ff4b12cf8fd1afebd8f4fd345fe2ddc6ba2ce1b4",
        "sched": "7940f1c18346d99ea4745d166b1982e12ca4478d69e5e26e67d5b17e89ae0bf1",
        "spans": "8d89f18dc7891e0635ff25360820183963b4f3203f471d8f0dc60b5826f6592b",
    },
}


@pytest.fixture(scope="module")
def programs():
    return _programs()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case, programs):
    name, config = CASES[case]
    assert digests(programs[name], config) == GOLDEN[case]


# every golden case, and one whose conditional reset issues an injected op
# (a `StepRecord` with `injected=True`), which no golden case does
RECORD_CASES = dict(CASES)
RECORD_CASES["reset200-bias1"] = (
    "reset200", MachineConfig(superscalar_width=4, seed=1,
                              qpu=QpuConfig(outcome_bias=1.0)))


@pytest.mark.parametrize("case", sorted(RECORD_CASES))
def test_records_are_their_named_tuples(case, programs):
    # the run path builds records with `tuple.__new__`; each must still be
    # an instance of its class, equal to one the constructor builds
    name, config = RECORD_CASES[case]
    trace = Engine(programs[name], config).run()
    if case == "reset200-bias1":
        assert any(step.injected for step in trace.steps)
    report = build_report(trace, program_hash(programs[name]))
    for cls, records in ((IssueEvent, trace.events),
                         (StepRecord, trace.steps),
                         (SchedulerEvent, trace.scheduler_events),
                         (StepMetrics, report.steps)):
        assert records
        for x in records:
            assert type(x) is cls
            assert x == cls(*x)


if __name__ == "__main__":
    _progs = _programs()
    print("GOLDEN = {")
    for _case in sorted(CASES):
        _name, _config = CASES[_case]
        print(f'    "{_case}": {{')
        for _part, _digest in digests(_progs[_name], _config).items():
            print(f'        "{_part}": "{_digest}",')
        print("    },")
    print("}")
