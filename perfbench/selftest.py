"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Injected faults are caught: a perturbed Fraction (constants-qq), a
   flipped verdict (stability-gf2) and a step that raises (mutation-qq)
   must each show up as failed jobs, and the run must go on to the last
   job; the same jobs without the fault must all pass.
2. Counters repeat: two separate traced runs at the same seed must
   report identical counters (every per-layer metric that is not a time).
3. BENCHMARK.json names the metrics and workloads that run.py reports.

Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import run
import tracing
import workloads


def _perturbed_search(original):
    def search(*args, **kwargs):
        rep = original(*args, **kwargs)
        rep.witness_value += Fraction(1, 10 ** 9)
        return rep
    return search


def _flipped_verdict(original):
    def verdict(inst, w, pol, group="Gred", **kwargs):
        v = original(inst, w, pol, group=group, **kwargs)
        if group == "Gred":
            v.semistable, v.stable = not v.semistable, False
        return v
    return verdict


def _raising(original):
    def fail(*args, **kwargs):
        raise RuntimeError("injected fault")
    return fail


# workload -> (module, function, fault, number of round-0 jobs to run)
INJECTIONS = {
    "constants-qq": ("constants", "c_tau_search", _perturbed_search, None),
    "mutation-qq": ("homdata", "mutated_instance", _raising, 12),
    "stability-gf2": ("stability", "is_semistable_rs", _flipped_verdict, 36),
}


def check_injection(mf, name):
    modname, attr, fault, count = INJECTIONS[name]
    wl, workdir = run.make_workload(mf, name, workloads.DEFAULT_SEED, workloads)
    state = wl.setup()
    clean = run.Tally()
    run.run_jobs(wl.round(state, 0)[:count], clean)
    jobs = wl.round(state, 0)[:count]
    owner = getattr(mf, modname)
    saved = tracing.rebind(owner, attr, fault(getattr(owner, attr)))
    try:
        broken = run.Tally()
        run.run_jobs(jobs, broken)
    finally:
        tracing.restore(saved)
    ok = (clean.failed == 0 and broken.failed > 0
          and broken.attempted == len(jobs))
    print("%s %-14s fault in %s.%s: clean %d/%d failed, injected %d/%d failed"
          % ("PASS" if ok else "FAIL", name, modname, attr, clean.failed,
             clean.attempted, broken.failed, broken.attempted))
    return ok


def traced_counters(name, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] not in ("s", "units/s") and not k.startswith("trace.")}


def check_repeat(name, seed=7):
    first, second = traced_counters(name, seed), traced_counters(name, seed)
    diff = sorted(k for k in first if first[k] != second.get(k))
    print("%s %-14s counters of two traced runs at seed %d: %d compared, %d differ%s"
          % ("FAIL" if diff else "PASS", name, seed, len(first), len(diff),
             (": " + ", ".join(diff)) if diff else ""))
    return not diff


def check_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = (sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
          and {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
          and {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER)
    print("%s BENCHMARK.json matches the workloads and metrics of run.py"
          % ("PASS" if ok else "FAIL"))
    return ok


def main():
    mf = run.import_program()
    names = sorted(workloads.WORKLOADS)
    results = [check_benchmark_json()]
    results += [check_injection(mf, name) for name in names]
    results += [check_repeat(name) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
