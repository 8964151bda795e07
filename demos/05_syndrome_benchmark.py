# The headline benchmark: fault-tolerant syndrome measurement.
#
# 37 qubits: a 7-qubit code block plus six 4-qubit cat states with their
# verification ancillas. Every round prepares and verifies the cats in
# parallel (repeat-until-verified), couples them to the data block, and
# extracts a syndrome bit per stabilizer; three rounds feed a majority
# vote. More processors soak up the parallel verification work.

from qcpsim import (ExperimentSpec, MachineConfig, gen_steane_syndrome,
                    ideal_speedup, run_experiment)

program = gen_steane_syndrome()
quantum = sum(1 for i in program.instructions if i.is_quantum)
print(f"program: {len(program.instructions)} instructions "
      f"({quantum} quantum), {len(program.block_directives)} blocks, "
      f"{len({b.priority for b in program.block_directives})} priority levels")

spec = ExperimentSpec(program, repetitions=200, bias=0.1)
base_cfg = MachineConfig()

means = {}
for cores in (1, 2, 4, 6):
    from dataclasses import replace
    report = run_experiment(spec, replace(base_cfg, cores=cores))
    means[cores] = report.extras["exec_ns_mean"]
    speedup = means[1] / means[cores]
    bound = ideal_speedup(spec, base_cfg, cores)
    print(f"{cores} cores: mean {means[cores] / 1000:7.2f} us  "
          f"speedup {speedup:4.2f}x  free-scheduling bound {bound:4.2f}x")

print("\nfailure-rate sweep (6 cores vs 1):")
for bias in (0.05, 0.10, 0.20):
    s = ExperimentSpec(program, repetitions=200, bias=bias)
    from dataclasses import replace
    t1 = run_experiment(s, replace(base_cfg, cores=1)).extras["exec_ns_mean"]
    t6 = run_experiment(s, replace(base_cfg, cores=6)).extras["exec_ns_mean"]
    print(f"  failure rate {bias:4.0%}: {t1 / t6:4.2f}x")
