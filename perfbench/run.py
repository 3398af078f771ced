"""tbtrellis benchmark: one closed-loop caller, no threads, on the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The caller submits the next operation (a received word, or one ``verify``
CLI call) only after the previous one returns.  Inputs come from
``workloads.py`` and are generated from the seed before timing starts;
every output is checked outside the timed call, and an operation that
raises or fails its check counts as failed.

On a shared host the speed drifts by up to 1.7x over seconds, in CPU
time as much as in wall time.  So a timer signal samples a fixed
pure-Python kernel every SPEED_PERIOD_S while calls are timed, and each
stretch of call time is scaled by KERNEL_REF_S / (kernel time there):
times read as wall time on a machine that runs the kernel in
KERNEL_REF_S.  Set-up probes are corrected the same way by a bare
interpreter start (BARE_REF_S).  The uncorrected figures are printed too.

With ``--trace 0`` the end-to-end metrics are measured with no
instrumentation.  With ``--trace 1`` a fixed prefix of the inputs is run
in alternating untraced and traced passes; the traced passes give the
per-layer metrics (per operation) and the untraced ones the tracing
overhead.  Spans are written to ``.perfbench/`` at the end.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 15
# Process start-up does not slow down with the kernel below, so set-up
# probes are corrected by a bare interpreter start instead: BARE_REF_S is
# its best wall time on the reference machine (below), spawn to exit.
BARE_INTERPRETER = [sys.executable, "-c", "pass"]
BARE_REF_S = 0.05
# best-of-3 time of the kernel at the reference machine speed that corrected
# times are expressed in: an undisturbed 2-vCPU KVM guest on a Xeon
# Sapphire Rapids host, Python 3.11
KERNEL_REF_S = 270e-6
# interval between two machine-speed samples
SPEED_PERIOD_S = 0.05


def load_package():
    """Import tbtrellis from this checkout's sources, never from an installed copy."""
    src = (ROOT / "src").resolve()
    if not (src / "tbtrellis" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tbtrellis sources at {src}")
    sys.path.insert(0, str(src))
    import tbtrellis
    import tbtrellis.cli

    if Path(tbtrellis.__file__).resolve().parent != src / "tbtrellis":
        sys.exit(f"perfbench: imported tbtrellis from {tbtrellis.__file__}, not from {src}")
    return tbtrellis


def _kernel_seconds():
    t0 = time.perf_counter()
    d = {}
    for i in range(1500):
        t = (i & 7, (i >> 3) & 7)
        d[t] = d.get(t, 0) + i
    return time.perf_counter() - t0


class Speed:
    """Machine speed, sampled on a timer signal all through the timed part of a run.

    A sample is the best-of-3 time of a fixed pure-Python kernel.  Between two
    samples the speed is taken as their geometric mean; time spent inside the
    samples belongs to no call.
    """

    def __init__(self):
        self.marks = []  # (start, end, kernel seconds) per sample

    def _sample(self, *_):
        t0 = time.perf_counter()
        best = min(_kernel_seconds() for _ in range(3))
        self.marks.append((t0, time.perf_counter(), best))

    def __enter__(self):
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._sample()

    def times(self, spans):
        """For time-ordered (start, end) spans: (seconds outside samples, corrected seconds) each."""
        segments = [
            (a[1], b[0], KERNEL_REF_S / (a[2] * b[2]) ** 0.5) for a, b in zip(self.marks, self.marks[1:])
        ]
        out, j = [], 0
        for start, end in spans:
            while segments[j][1] <= start:
                j += 1
            raw = corrected = 0.0
            for lo, hi, scale in segments[j:]:
                if lo >= end:
                    break
                overlap = min(hi, end) - max(lo, start)
                if overlap > 0:
                    raw += overlap
                    corrected += overlap * scale
            out.append((raw, corrected))
        return out


class Runner:
    """Calls one workload's operations, timing each call and keeping a summary of its result."""

    def __init__(self, tb, spec, wl, tracer=None):
        self.tb, self.spec, self.wl, self.tracer = tb, spec, wl, tracer
        self.errors = 0

    def run(self, op, index, traced=False):
        """Returns ((start, end) of the call, result summary or None if the call raised)."""
        arg = self.wl.prepare(op)
        if traced:
            self.tracer.op = index
        t0 = time.perf_counter()
        try:
            res = self.wl.call(self.tb, self.spec, arg)
        except Exception:
            span = (t0, time.perf_counter())
            self.errors += 1
            if self.errors == 1:
                traceback.print_exc()
            return span, None
        finally:
            if traced:
                self.tracer.op = None
        span = (t0, time.perf_counter())
        return span, self.wl.summarize(res)


def _wall(argv):
    """Wall time of one child process, from spawn to the return of a blocking wait for its exit."""
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, cwd=ROOT)
    return time.perf_counter() - t0


def setup_seconds(argv):
    """Wall time of one fresh probe process (interpreter, import, code spec, warm-up).

    Returns (raw, corrected): the correction scales by BARE_REF_S over the
    geometric mean of a bare interpreter start just before and just after.
    """
    # the speed sampler's timer is held off meanwhile, so that it neither
    # competes with the child nor delays the wait's return
    signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGALRM])
    try:
        before = _wall(BARE_INTERPRETER)
        t = _wall(argv)
        after = _wall(BARE_INTERPRETER)
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGALRM])
    return t, t * BARE_REF_S / (before * after) ** 0.5


def end_to_end(tb, wl, seed, seconds):
    ops = wl.make_ops(seed, wl.pool)
    spec = tb.load_codespec(wl.code_path)
    wl.warmup(tb, spec, ops[0])
    recorded, recorded_failed = wl.recorded_failures(tb, spec)
    runner = Runner(tb, spec, wl)
    probe = [sys.executable, str(HERE / "probe.py")] + wl.probe_args(ops[0])
    # outputs are checked as they come and call times kept in arrays, so the
    # benchmark's own memory does not grow with the number of calls
    starts, ends, setup, failed = array("d"), array("d"), [], 0
    with Speed() as speed:
        t_start = time.perf_counter()
        deadline = t_start + seconds
        i = 0
        while i < len(ops) and (i < wl.min_ops or time.perf_counter() < deadline):
            # set-up probes are spread over the run so that they see the
            # host in the same mix of states as the calls
            if len(setup) < SETUP_PROBES and time.perf_counter() >= t_start + len(setup) * seconds / SETUP_PROBES:
                setup.append(setup_seconds(probe))
            (start, end), summary = runner.run(ops[i], i)
            starts.append(start)
            ends.append(end)
            failed += not wl.check(ops[i], summary)
            i += 1
        setup += [setup_seconds(probe) for _ in range(SETUP_PROBES - len(setup))]
    raw, times = zip(*speed.times(zip(starts, ends)))
    raw_setup, setup = zip(*setup)
    n = len(times)
    attempted, all_failed = n + recorded, failed + recorded_failed
    # only operations that passed their check count as work done
    metrics = {
        "bits_per_s": (wl.bits_per_op * (n - failed) / sum(times), "bit/s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": ((attempted - all_failed) / attempted, "frac"),
    }
    notes = [
        f"failed_frac = {all_failed / attempted:.6g} ({all_failed} of {attempted} operations:"
        f" {n} timed, {recorded} recorded-digest words)",
        f"uncorrected: bits_per_s {wl.bits_per_op * (n - failed) / sum(raw):.6g},"
        f" op_ms_p50 {statistics.median(raw) * 1e3:.6g},"
        f" setup_s {statistics.median(raw_setup):.6g};"
        f" kernel s median {statistics.median(k for *_, k in speed.marks):.4g} over {len(speed.marks)} samples",
    ]
    if wl.kind == "decode":
        notes += [
            f"decode_bits_per_s = {metrics['bits_per_s'][0]:.6g} bit/s ({n} words of {wl.bits_per_op} bits)",
            f"word_ms_p50 = {metrics['op_ms_p50'][0]:.6g} ms",
        ]
        if n >= 1000:
            p99 = statistics.quantiles(times, n=100)[98] * 1e3
            notes.append(f"word_ms_p99 = {p99:.6g} ms ({n} samples, {n - int(0.99 * n)} beyond)")
    else:
        notes.append(f"verify_s = {statistics.median(times):.6g} s (median of {n} calls)")
    return attempted, all_failed, metrics, notes


def per_layer(tb, wl, seed, seconds):
    from tracing import Tracer, layer_metrics

    ops = wl.make_ops(seed, wl.trace_ops)
    t0 = time.perf_counter()
    spec = tb.load_codespec(wl.code_path)
    load_s = time.perf_counter() - t0
    wl.warmup(tb, spec, ops[0])
    warmup_s = time.perf_counter() - t0 - load_s
    recorded, recorded_failed = wl.recorded_failures(tb, spec)
    tracer = Tracer()
    runner = Runner(tb, spec, wl, tracer)
    spans, was_traced, passes, failed = [], [], [], 0
    with Speed() as speed:
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            for on in (False, True):
                if on:
                    tracer.install()
                    mark = tracer.snapshot()
                for i, op in enumerate(ops):
                    span, summary = runner.run(op, i, traced=on)
                    spans.append(span)
                    was_traced.append(on)
                    failed += not wl.check(op, summary)
                if on:
                    tracer.uninstall()
                    passes.append(tracer.aggregate(mark, tracer.snapshot()))
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{wl.name}-seed{seed}.csv.gz")
    n = len(spans)
    attempted, all_failed = n + recorded, failed + recorded_failed
    metrics = layer_metrics(passes, len(ops))
    corrected = [c for _, c in speed.times(spans)]
    # corrected seconds per op, untraced and traced
    u = sum(dt for dt, on in zip(corrected, was_traced) if not on) / (n / 2)
    t = sum(dt for dt, on in zip(corrected, was_traced) if on) / (n / 2)
    metrics["trace.overhead_s"] = (t - u, "s/op")
    metrics["trace.overhead_frac"] = (t / u - 1, "frac")
    metrics["setup.load_codespec_s"] = (load_s, "s")
    metrics["setup.warmup_s"] = (warmup_s, "s")
    modules = {}
    for name, (value, _) in metrics.items():
        if name.endswith(".self_s"):
            modules[name.split(".")[0]] = modules.get(name.split(".")[0], 0.0) + value
    total = sum(modules.values())
    notes = [
        "self-time shares: "
        + ", ".join(f"{m} {v / total:.0%}" for m, v in sorted(modules.items(), key=lambda kv: -kv[1]) if v),
        f"{len(passes)} untraced and {len(passes)} traced passes of {len(ops)} ops;"
        f" corrected s/op untraced {u:.6g}, traced {t:.6g}",
        f"failed_frac = {all_failed / attempted:.6g} ({all_failed} of {attempted} operations:"
        f" {n} traced or untraced, {recorded} recorded-digest words)",
    ]
    return attempted, all_failed, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    tb = load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    wl.load()
    measure = per_layer if args.trace else end_to_end
    n, failed, metrics, notes = measure(tb, wl, args.seed, args.seconds)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
