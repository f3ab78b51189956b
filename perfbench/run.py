"""Benchmark of mutation_forge: one process, one thread, a closed loop.

    python3 perfbench/run.py --workload constants-qq --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ./src.
A run first builds the shared inputs several times (setup_s is the
median build), then starts rounds of jobs, each job only after the
previous one returned, until --seconds have passed, and ends with the
round it is in, so that every run has whole rounds. Round r draws its
inputs from the seed and r, so a run sees the same inputs every time it
is given the same seed.

Times are given at a reference host speed. The host is a shared virtual
machine whose cores switch, every second or so, between speeds up to 2x
apart, and a run can spend most of its time in either. Every timing is
therefore scaled by the speed read, every READ_EVERY_S while it runs,
from a fixed pure-Python loop that does not touch the program (see
Clock): a change to the program moves the scaled time, a change of host
speed does not. The report also prints the unscaled job time.

--trace 0 reports the end-to-end metrics over every job of the run:
units per second of time spent in the program, the median and 90th
percentile job time, the set-up time and the peak resident memory.
--trace 1 reports the per-layer metrics instead. It runs round 0
untraced, then traced, and repeats the pair while time remains; self
times and counters are per traced round, the counters must repeat
exactly, and the two halves give the tracing overhead. The kept spans
are written to .perfbench_work/spans-<workload>.bin.

Every job's output is checked (workloads.py); a job that raises or
returns a wrong answer counts in `failed` and the run goes on. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import bisect
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Share of --seconds spent building the shared inputs before the jobs.
SETUP_SHARE = 0.05
# About the seconds Clock.loop takes at the faster of the two speeds of
# the 2-core virtual machine the benchmark was written on: scaled times
# are about the times at that speed.
REF_LOOP_S = 250e-6
# Wall seconds between two speed readings.
READ_EVERY_S = 0.02
END_TO_END = {
    "setup_s": "s",
    "units_per_s": "units/s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "peak_rss_mib": "MiB",
}

# name -> unit; "calls", "cells", ... are counts per traced round and
# "self_s" the self time per traced round.
_LAYERS = {
    "exactfield.rref": ("calls", "cells", "self_s"),
    "exactfield.matmul": ("calls", "madds", "nnz_ratio", "self_s"),
    "exactfield.kron": ("calls", "out_cells", "self_s"),
    "exactfield.solve": ("calls", "self_s"),
    "exactfield.kernel": ("calls", "self_s"),
    "exactfield.subspace": ("calls", "self_s"),
    "exactfield.enumerate": ("subspaces", "self_s"),
    "theta.validate": ("calls", "self_s"),
    "theta.json": ("bytes", "self_s"),
    "mutation.build_dual": ("calls", "self_s"),
    "mutation.swap_matrix": ("cells", "self_s"),
    "mutation.double_dual": ("self_s",),
    "mutation.involution": ("self_s",),
    "mutation.mutate": ("calls", "self_s"),
    "homdata.hom_data": ("self_s",),
    "homdata.build_theta_p": ("self_s",),
    "homdata.mutated_hom_data": ("self_s",),
    "homdata.transpose": ("self_s",),
    "homdata.mutated_instance": ("calls",),
    "homdata.json": ("bytes", "self_s"),
    "homdata.family": ("calls", "self_s"),
    "stability.gred": ("calls", "families", "self_s"),
    "stability.orbit": ("points", "walk_ratio", "self_s"),
    "stability.apply_unipotent": ("self_s",),
    "stability.compare": ("calls", "self_s"),
    "constants.search": ("calls", "self_s"),
    "constants.delta": ("calls", "self_s"),
    "constants.generic": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}
_UNITS = {"self_s": "s", "bytes": "B", "nnz_ratio": "ratio",
          "walk_ratio": "ratio"}
PER_LAYER = {"%s.%s" % (layer, kind): _UNITS.get(kind, "count")
             for layer, kinds in _LAYERS.items() for kind in kinds}
PER_LAYER.update({
    "stability.budget_used": "ratio",
    "constants.accept_ratio": "ratio",
    "job.self_s": "s",
    "trace.units_per_s": "units/s",
    "trace.untraced_units_per_s": "units/s",
    "trace.overhead_ratio": "ratio",
})


class Clock:
    """Host speed, read while the program runs; converts spans of wall
    time into seconds at the reference speed.

    Inside ``with Clock() as clock``, an interval timer interrupts the
    program every READ_EVERY_S, and the handler reads the speed as the
    mean time of three runs of a fixed pure-Python loop (Fraction
    arithmetic and small containers, as in the program); run_jobs also
    reads it right before and right after each call. Between two
    readings, wall time counts REF_LOOP_S over their mean; the readings
    themselves count nothing. A job of seconds, through which the speed
    changes, is thus scaled piece by piece. The mean, not the best, of
    the three runs: on the slow speed the loop's time varies more, and
    the program meets that variation, not the loop's best case."""

    def __enter__(self):
        self.readings = []   # (start, end, seconds of one loop)
        self._read()
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, READ_EVERY_S, READ_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._read()
        self.ends = [end for _, end, _ in self.readings]
        self.gaps = []        # (scaled, unscaled) seconds at each reading's end
        scaled = unscaled = 0.0
        for (_, end, c), (start, _, c_next) in zip(self.readings, self.readings[1:]):
            self.gaps.append((scaled, unscaled, 2 * REF_LOOP_S / (c + c_next)))
            scaled += (start - end) * self.gaps[-1][2]
            unscaled += start - end
        self.gaps.append((scaled, unscaled, 0.0))

    @staticmethod
    def loop():
        s, d = Fraction(0), {}
        for i in range(1, 100):
            s += Fraction(i, i + 1)
            d[i] = [i] * 3
        return s

    def _read(self):
        self.readings.append((perf_counter(), None, None))
        t = perf_counter()
        for _ in range(3):
            self.loop()
        end = perf_counter()
        self.readings[-1] = (self.readings[-1][0], end, (end - t) / 3)

    def _on_alarm(self, signum, frame):
        if self.readings[-1][1] is not None:   # not inside a reading
            self._read()

    def mark(self):
        """Read the speed now, and next in READ_EVERY_S."""
        signal.setitimer(signal.ITIMER_REAL, READ_EVERY_S, READ_EVERY_S)
        self._read()

    def _at(self, t):
        k = bisect.bisect_right(self.ends, t) - 1
        scaled, unscaled, factor = self.gaps[k]
        return scaled + (t - self.ends[k]) * factor, unscaled + t - self.ends[k]

    def seconds(self, spans):
        """(scaled, unscaled) seconds of each (start, end) wall span."""
        out = []
        for start, end in spans:
            a, b = self._at(start), self._at(end)
            out.append((b[0] - a[0], b[1] - a[1]))
        return out


class Tally:
    """Outcome of a sequence of jobs."""

    def __init__(self):
        self.spans = []      # (start, end) of each call into the program
        self.units = 0
        self.failed = 0
        self.errors = []

    @property
    def attempted(self):
        return len(self.spans)

    def times(self):
        """Wall seconds of each call."""
        return [end - start for start, end in self.spans]


def run_jobs(jobs, tally, records=None, tracer=None, clock=None):
    """Run jobs one after another; time only the call into the program,
    then check its output. A job that raises or fails its check is
    counted and the loop goes on. A clock reads the speed right before
    and right after each call."""
    for job in jobs:
        call = job.call
        if tracer is not None:
            tracer.job += 1
            call = tracer.span("job." + job.kind, call)
        err = None
        if clock is not None:
            clock.mark()
        start = perf_counter()
        try:
            out = call()
        except Exception:
            err = traceback.format_exc(limit=3)
        tally.spans.append((start, perf_counter()))
        if clock is not None:
            clock.mark()
        if err is None:
            try:
                units, record = job.check(out)
            except Exception as exc:
                err = "%s: %s" % (type(exc).__name__, exc)
        if err is not None:
            tally.failed += 1
            if len(tally.errors) < 5:
                tally.errors.append("%s job: %s" % (job.kind, err.strip()))
            continue
        tally.units += units
        if records is not None:
            records.append(record)


def digest(records):
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def percentile(sorted_values, pct):
    """Nearest-rank percentile, pct an integer from 1 to 100."""
    return sorted_values[-(-pct * len(sorted_values) // 100) - 1]


def import_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import mutation_forge.cli  # noqa: F401  (imports every module)
    import mutation_forge
    return mutation_forge


def make_workload(mf, name, seed, workloads):
    workdir = os.path.join(ROOT, ".perfbench_work", name)
    os.makedirs(workdir, exist_ok=True)
    return workloads.WORKLOADS[name](mf, seed, workdir), workdir


def measure(wl, seconds):
    """Build the shared inputs at least 5 times and for SETUP_SHARE of
    --seconds, then run untraced rounds until --seconds have passed;
    round 0 records kept."""
    tally = Tally()
    records = []
    builds = []
    rounds = 0
    with Clock() as clock:
        start = perf_counter()
        while len(builds) < 5 or perf_counter() - start < SETUP_SHARE * seconds:
            t = perf_counter()
            state = wl.setup()
            builds.append((t, perf_counter()))
        start = perf_counter()
        while rounds == 0 or perf_counter() - start < seconds:
            run_jobs(wl.round(state, rounds), tally, records if not rounds else None,
                     clock=clock)
            rounds += 1
    return tally, records, rounds, clock, [s for s, _ in clock.seconds(builds)]


def measure_traced(mf, wl, seconds, tracing):
    """Pairs of (untraced, traced) runs of round 0 until --seconds have
    passed. Times are wall seconds: the clock's readings would land in
    the spans."""
    state = wl.setup()
    tracer = tracing.Tracer(mf)
    plain, traced = Tally(), Tally()
    records = []
    per_round = []
    start = perf_counter()
    while True:
        run_jobs(wl.round(state, 0), plain, records if not per_round else None)
        jobs = wl.round(state, 0)
        before = dict(tracer.counters), dict(tracer.calls)
        with tracer:
            run_jobs(jobs, traced, tracer=tracer)
        tracer.keep_spans = False
        per_round.append(({k: v - before[0].get(k, 0) for k, v in tracer.counters.items()},
                          {k: v - before[1].get(k, 0) for k, v in tracer.calls.items()}))
        if perf_counter() - start >= seconds:
            return tracer, plain, traced, records, per_round


def layer_metrics(tracer, plain, traced, per_round):
    n = len(per_round)
    counters, calls = per_round[0]
    out = {}
    for layer, kinds in _LAYERS.items():
        for kind in kinds:
            if kind == "calls":
                v = calls.get(layer, 0)
            elif kind == "self_s":
                v = tracer.self_s.get(layer, 0.0) / n
            elif kind == "nnz_ratio":
                cells = counters.get("exactfield.matmul.cells", 0)
                v = counters.get("exactfield.matmul.nnz", 0) / cells if cells else 0.0
            elif kind == "walk_ratio":
                full = counters.get("stability.orbit.full_points", 0)
                v = counters.get("stability.orbit.points", 0) / full if full else 0.0
            elif kind == "points":
                v = counters.get("stability.orbit.points", 0)
            else:
                v = counters.get("%s.%s" % (layer, kind), 0)
            out["%s.%s" % (layer, kind)] = v
    draws = counters.get("constants.subspaces", 0) - calls.get("constants.search", 0)
    out["constants.accept_ratio"] = (counters.get("constants.scored", 0) / draws
                                     if draws > 0 else 0.0)
    out["stability.budget_used"] = tracer.max_counters.get("stability.budget_used", 0.0)
    out["job.self_s"] = sum(v for k, v in tracer.self_s.items()
                            if k.startswith("job.")) / n
    traced_s, plain_s = sum(traced.times()), sum(plain.times())
    out["trace.units_per_s"] = traced.units / traced_s
    out["trace.untraced_units_per_s"] = plain.units / plain_s
    out["trace.overhead_ratio"] = traced_s / plain_s
    return out


def module_table(tracer, rounds):
    """Self time per module (first dotted part of the span name)."""
    mods = {}
    for name, s in tracer.self_s.items():
        mod = name.split(".")[0]
        mods[mod] = mods.get(mod, 0.0) + s / rounds
    total = sum(mods.values()) or 1.0
    lines = ["  %-12s %12s %7s" % ("module", "self_s/round", "share")]
    for mod, s in sorted(mods.items(), key=lambda kv: -kv[1]):
        lines.append("  %-12s %12.4f %6.1f%%" % (mod, s, 100 * s / total))
    lines.append("  %-28s %12s %7s %12s %9s" % ("span", "self_s/round", "share",
                                                 "total_s/round", "calls"))
    for name, s in sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:14]:
        lines.append("  %-28s %12.4f %6.1f%% %12.4f %9d"
                     % (name, s / rounds, 100 * s / rounds / total,
                        tracer.total_s[name] / rounds, tracer.calls[name] // rounds))
    return lines


def main(argv=None):
    sys.path.insert(0, HERE)
    import workloads
    import tracing

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        mf = import_program()
    except ImportError as exc:
        sys.stderr.write("cannot import mutation_forge from %s: %s\n"
                         % (os.path.join(ROOT, "src"), exc))
        return 2

    wl, workdir = make_workload(mf, args.workload, args.seed, workloads)
    lines = ["workload %s  seed %d  unit: %s" % (wl.name, args.seed, wl.unit)]
    if args.trace:
        tracer, plain, traced, records, per_round = measure_traced(
            mf, wl, args.seconds, tracing)
        metrics = layer_metrics(tracer, plain, traced, per_round)
        units = PER_LAYER
        tally = Tally()
        for t in (plain, traced):
            tally.spans += t.spans
            tally.failed += t.failed
            tally.errors += t.errors
        repeat = all(pr == per_round[0] for pr in per_round)
        lines.append("traced rounds %d  (round 0 each time); counters repeat "
                     "exactly across them: %s" % (len(per_round), repeat))
        span_path = os.path.join(ROOT, ".perfbench_work", "spans-%s.bin" % wl.name)
        tracer.dump(span_path)
        lines.append("%d spans of the first traced round written to %s"
                     % (len(tracer.spans["name"]), span_path))
    else:
        tally, records, rounds, clock, builds = measure(wl, args.seconds)
        scaled = clock.seconds(tally.spans)
        times = sorted(t for t, _ in scaled)
        metrics = {
            "setup_s": statistics.median(builds),
            "units_per_s": tally.units / sum(times),
            "job_s.p50": percentile(times, 50),
            "job_s.p90": percentile(times, 90),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        raw = sorted(t for _, t in scaled)
        lines.append("rounds %d  jobs %d  units %d  speed readings %d  job time %.3f s "
                     "scaled, %.3f s unscaled  (unscaled job_s.p50 %.6g, p90 %.6g)"
                     % (rounds, tally.attempted, tally.units, len(clock.readings),
                        sum(times), sum(raw), percentile(raw, 50), percentile(raw, 90)))
        samples = {"setup_s": len(builds), "units_per_s": tally.units,
                   "job_s.p50": tally.attempted, "job_s.p90": tally.attempted,
                   "peak_rss_mib": 1}
    shutil.rmtree(workdir, ignore_errors=True)

    got = digest(records)
    pinned = workloads.DIGESTS[wl.name]
    digest_ok = args.seed != workloads.DEFAULT_SEED or got == pinned
    lines.append("round-0 digest %s%s" % (got, "" if digest_ok else
                                           "  MISMATCH, pinned %s" % pinned))
    fail_ratio = tally.failed / tally.attempted
    lines.append("fail_ratio %.6f  (%d of %d jobs)"
                 % (fail_ratio, tally.failed, tally.attempted))
    lines += ["  error: " + e.replace("\n", " | ") for e in tally.errors]
    for name, unit in units.items():
        extra = "  (n=%d)" % samples[name] if not args.trace else ""
        lines.append("  %-32s %16.6g %-8s%s" % (name, metrics[name], unit, extra))
    if args.trace:
        lines += module_table(tracer, len(per_round))
    print("\n".join(lines))
    result = {
        "correct": tally.failed == 0 and digest_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
