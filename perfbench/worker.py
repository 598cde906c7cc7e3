"""One workload in its own process; started by run.py.

With --trace 0 it repeats whole untraced passes, each followed by the
calibration loop, until --seconds have gone by, and prints the median pass
time at the reference speed (calibrate.py) and the process's peak memory.
With --trace 1 it alternates an untraced and a traced pass and prints the
per-layer figures of the traced passes (medians over passes), the overhead
of the traced passes over the untraced ones (medians at the reference
speed), and writes the spans of the last traced pass under
.perfbench-out/.  With --setup it only imports the program and makes the
inputs, which is what run.py times as set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
import workloads
from workloads import WORKLOADS

# Where a traced run writes its spans, relative to the source tree.
OUT_DIR = Path(".perfbench-out")
# Peak memory is read after this many passes.  The process's heap keeps
# growing slowly over repeated passes (about 1 MB a pass on verify-suite),
# so the peak at the end of a run would depend on how many passes the
# machine's speed allowed.
RSS_PASSES = 3
# Per-layer self seconds: metric -> traced functions summed into it.
SECONDS = {
    "engine.exact_s": ["engine.exact_work_distribution"],
    "engine.mc_s": ["engine.monte_carlo"],
    "engine.brute_force_s": ["engine.brute_force_work_distribution"],
    "engine.total_variation_s": ["engine.total_variation"],
    "engine.final_state_s": ["engine.final_state"],
    "protocol.build_s": ["protocol.build_average_work_protocol",
                         "protocol.build_thermalize_once",
                         "protocol.build_pure_excited_reset"],
    "protocol.validate_s": ["protocol.validate"],
    "protocol.random_protocol_s": ["protocol.random_protocol"],
    "paths.path_work_distribution_s": ["paths.path_work_distribution"],
    "paths.enumerate_paths_s": ["paths.enumerate_paths"],
    "paths.area_between_s": ["paths.area_between"],
    "paths.epsilon_s": ["paths.epsilon_iii", "paths.epsilon_iii_tilde"],
    "bounds.theorem_s": ["bounds.theorem_main_bound",
                         "bounds.theorem_rev_bound",
                         "bounds.theorem_same_side"],
    "bounds.binomial_tail_s": ["bounds.exact_binomial_upper_tail",
                               "bounds.hoeffding_tail"],
    "characterize.classify_s": ["characterize.classify_transition"],
    "characterize.synthesize_s": ["characterize.synthesize_protocol"],
    "thermo.gibbs_population_s": ["thermo.gibbs_population"],
    "cli.simulate_s": ["cli.simulate"],
    "cli.verify_s": ["cli.verify"],
}
# Per-layer call counts: metric -> traced functions counted into it.
CALLS = {
    "engine.exact_calls": SECONDS["engine.exact_s"],
    "paths.path_work_distribution_calls":
        SECONDS["paths.path_work_distribution_s"],
    "bounds.theorem_calls": SECONDS["bounds.theorem_s"],
    "characterize.classify_calls": SECONDS["characterize.classify_s"],
    "thermo.gibbs_population_calls": SECONDS["thermo.gibbs_population_s"],
}


def layer_metrics(tracer) -> dict[str, float]:
    totals = tracer.layer_totals()

    def seconds(names):
        return sum(totals.get(n, (0.0, 0))[0] for n in names)

    def calls(names):
        return sum(totals.get(n, (0.0, 0))[1] for n in names)

    out = {m: seconds(names) for m, names in SECONDS.items()}
    out.update({m: calls(names) for m, names in CALLS.items()})
    exact_calls = out["engine.exact_calls"]
    out["engine.exact_us_per_call"] = (
        1e6 * out["engine.exact_s"] / exact_calls if exact_calls else 0.0)
    laws = [result.values
            for _, _, result in tracer.kept["engine.exact_work_distribution"]]
    out["engine.atoms_out"] = sum(len(v) for v in laws)
    out["engine.descents"] = sum(workloads.descents(v) for v in laws)
    draw_bytes = 0
    for args, kwargs, _ in tracer.kept["engine.monte_carlo"]:
        proto, n_samples = args[0], args[2]
        # The sampler's layout: one uniform for the start, two per
        # thermalization, one per swap.
        kinds = [kind for kind, _ in workloads.steps_of(proto)]
        columns = 1 + 2 * kinds.count("PT") + kinds.count("BT")
        draw_bytes += n_samples * columns * 8
    out["engine.mc_draw_bytes"] = draw_bytes
    return out


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seconds: float, trace: bool):
    tally = workloads.Tally()
    # Passes as (seconds, calibration loop before, loop after).
    untraced, traced, layers = [], [], []
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
    deadline = time.perf_counter() + seconds
    peak_rss = None
    loop = calibrate.loop()
    while True:
        wall, outputs = workload.run()
        after = calibrate.loop()
        untraced.append((wall, loop, after))
        loop = after
        workload.check(outputs, tally)
        if len(untraced) == RSS_PASSES:
            peak_rss = _peak_rss_mb()
        if tracer is not None:
            tracer.reset()
            with tracer.installed():
                wall, outputs = workload.run()
            after = calibrate.loop()
            traced.append((wall, loop, after))
            loop = after
            layers.append(layer_metrics(tracer))
            workload.check(outputs, tally)
        if time.perf_counter() >= deadline:
            break
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "unexpected": sorted(set(tally.unexpected)),
        "passes": [seconds for seconds, _, _ in untraced],
        "loops": [untraced[0][1]] + [after for _, _, after in untraced],
        "items_per_pass": getattr(workload, "per_pass", None),
    }
    if tracer is None:
        result["metrics"] = {
            "wall_s": calibrate.scaled(untraced),
            "peak_rss_mb": peak_rss if peak_rss is not None else _peak_rss_mb(),
        }
    else:
        metrics = {m: statistics.median(layer[m] for layer in layers)
                   for m in layers[0]}
        metrics["trace.overhead_s"] = (calibrate.scaled(traced)
                                       - calibrate.scaled(untraced))
        result["metrics"] = metrics
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{workload.name}.npz")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup:
        return 0
    if hasattr(workload, "prepare"):
        workload.prepare()
    result = run(workload, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
