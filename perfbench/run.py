#!/usr/bin/env python3
"""phasepos benchmark: trial throughput, set-up time and memory of Monte-Carlo runs.

    python3 perfbench/run.py --workload fr1-los-toa --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, one after the other

A run drives the public harness API (run_scenario, compute_cdf, emit_results)
on the scenario generated from --seed; the package sees only that
ScenarioConfig.  --trace 0 measures one untraced run and prints the
end-to-end metrics listed in BENCHMARK.json.  --trace 1 runs the scenario
untraced, then traced (spans.py), then on a process pool where the workload
asks for one, and prints the per-layer metrics.  Times are scaled to a
reference machine speed by speed.py.

Every run checks its outputs: per-trial errors and integer-ambiguity (IA)
flags against reference.json for the default seed, invariants for any seed,
and byte-identical outputs from every run of one config (traced or not, one
worker or two).  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the full record, with the
environment, goes to .bench_results/.  Exit code 1 means an output check
failed, 2 that the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import spans
import speed
from workloads import DEFAULT_SEED, LAYER_TARGETS, WORKLOADS, n_trials, scenario_fields

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_results"
SETUP_PROBES = 5
TOLERANCE_M = 1e-9          # golden tolerance on per-trial errors
PHASE_METHODS = ("cp", "ccp")


# --------------------------------------------------------------------------- runs

@dataclass
class Run:
    results: list               # TrialResult per trial, in trial order
    wall_s: float               # wall time of run_scenario less its speed-kernel passes
    cpu_s: float                # CPU of this process and reaped children, likewise
    peak_rss_mib: float         # max RSS of this process or its largest child so far
    trial_ms: list[float]       # wall time of each run_trial call
    kernel_ms: list[float]      # wall time of the speed-kernel pass after each trial
    csv: bytes                  # emit_results output

    def scale(self, reference_ms: float) -> float:
        """Factor that takes this run's times to the reference machine speed.

        Each trial's kernel ratio, weighted by the trial's time.
        """
        return sum(self.trial_ms_at(reference_ms)) / sum(self.trial_ms)

    def trial_ms_at(self, reference_ms: float) -> list[float]:
        """Each trial's time scaled by the speed-kernel pass that followed it."""
        return [t * reference_ms / k for t, k in zip(self.trial_ms, self.kernel_ms)]


def _timed(run_trial, stream_length: int):
    """run_trial that annotates its result with its own time and a speed-kernel pass.

    The annotations travel back from pool workers with the pickled result;
    functools.wraps keeps the name pickle resolves in a forked worker.
    """
    @functools.wraps(run_trial)
    def timed(cfg, trial):
        start = time.perf_counter()
        result = run_trial(cfg, trial)
        result._bench_ms = (time.perf_counter() - start) * 1e3
        result._bench_kernel = speed.kernel(stream_length)
        return result
    return timed


def stream_length(pp, cfg) -> int:
    return cfg.n_symbols * pp.make_numerology(cfg.band).symbol_samples


def _cpu_seconds() -> float:
    """User plus system CPU of this process and of its reaped children."""
    return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                  resource.getrusage(resource.RUSAGE_CHILDREN)))


def measure(pp, harness, cfg, workers: int, out: Path, tracer=None) -> Run:
    """One scenario run as a user makes it: run_scenario, then a CDF per method and a CSV."""
    # Each run builds its scenario assets once, as a fresh CLI run does.
    harness._build_assets.cache_clear()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed(harness))
        stack.enter_context(spans.replaced(
            harness, {"run_trial": _timed(harness.run_trial, stream_length(pp, cfg))}))
        cpu = -_cpu_seconds()
        start = time.perf_counter()
        results = harness.run_scenario(cfg, workers=workers)
        wall = time.perf_counter() - start
        cpu += _cpu_seconds()
        peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                       resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        cdfs = []
        for method in cfg.methods:
            try:
                cdfs.append(harness.compute_cdf(results, method))
            except harness.EmptyResultError:
                pass    # every trial failed IA: a simulation outcome, so no curve
        harness.emit_results(cdfs, cfg, str(out))
    trial_ms = [vars(r).pop("_bench_ms") for r in results]
    kernel = [vars(r).pop("_bench_kernel") for r in results]
    wall -= sum(k for k, _ in kernel) / 1e3 / workers
    cpu -= sum(c for _, c in kernel) / 1e3
    return Run(results, wall, cpu, peak_kib / 1024.0, trial_ms, [k for k, _ in kernel],
               out.read_bytes())


def setup_seconds(workload, seed: int, trials: int, length: int) -> list[tuple[float, float]]:
    """Import plus asset build, each in a fresh interpreter, after a speed-kernel pass."""
    samples = []
    for _ in range(SETUP_PROBES):
        kernel_ms, _ = speed.kernel(length)
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed), str(trials)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append((float(proc.stdout.split()[-1]), kernel_ms))
    return samples


# --------------------------------------------------------------------- correctness

def half_wavelength_m(pp, cfg) -> float:
    """Half the longest carrier wavelength a resolved phase range can sit on."""
    num = pp.make_numerology(cfg.band)
    k = pp.middle_subcarrier(
        pp.PrsConfig(cfg.comb_size, cfg.comb_offset, cfg.n_symbols, cfg.prs_seed), num)
    carriers = [num.carrier_frequency_hz]
    if cfg.ambiguity == "widelane":
        carriers.append(cfg.widelane_second_fc_hz)
    return max(pp.SPEED_OF_LIGHT / (fc + k * num.scs_hz) for fc in carriers) / 2.0


def check_trial(result, index: int, cfg, ref: dict | None, half_wave_m: float) -> str | None:
    """Why one trial's outputs are wrong, or None."""
    if result.trial_index != index:
        return f"trial {result.trial_index} returned in slot {index}"
    if set(result.distance_error_m) != set(cfg.methods) or set(result.ia_failure) != set(cfg.methods):
        return f"methods {sorted(result.distance_error_m)} instead of {sorted(cfg.methods)}"
    for m in cfg.methods:
        err, failed = result.distance_error_m[m], result.ia_failure[m]
        if ref is not None:
            want = ref["errors"][m]
            if not (math.isnan(err) if want is None else abs(err - want) <= TOLERANCE_M):
                return f"{m}: error {err!r} m, reference {want!r} m"
            if failed != ref["ia_failure"][m]:
                return f"{m}: IA failure {failed}, reference {ref['ia_failure'][m]}"
        if failed:
            if cfg.ambiguity == "oracle":
                return f"{m}: IA failure in oracle mode"
            continue
        if not math.isfinite(err):
            return f"{m}: non-finite error {err!r} on a resolved trial"
        if m in PHASE_METHODS and abs(err) > half_wave_m:
            return f"{m}: |error| {abs(err)!r} m beyond half a wavelength {half_wave_m!r} m"
    return None


def check_csv(run: Run, cfg) -> str | None:
    """The CSV holds one row per resolved trial and method, plus the header."""
    kept = sum(1 for r in run.results for m in cfg.methods
               if not r.ia_failure[m] and math.isfinite(r.distance_error_m[m]))
    rows = run.csv.count(b"\n")
    return None if rows == kept + 1 else f"CSV has {rows} lines for {kept} resolved results"


def same_outputs(a, b) -> bool:
    return (a.trial_index == b.trial_index and a.ia_failure == b.ia_failure
            and a.resolved_integer == b.resolved_integer
            and {m: repr(e) for m, e in a.distance_error_m.items()}
            == {m: repr(e) for m, e in b.distance_error_m.items()})


def load_reference(workload, seed: int) -> list[dict]:
    ref = json.loads((HERE / "reference.json").read_text())
    return ref["scenarios"][workload.name]["trials"] if seed == ref["seed"] else []


# ------------------------------------------------------------------------- metrics

def layer_metrics(tracer, base: Run, traced: Run, pooled: Run | None, workers: int,
                  reference_ms: float) -> tuple:
    """Per-layer metrics from the spans of ``traced``; also returns per-stage details.

    Times are as measured, except that the tracing overhead compares
    reference-speed trial times of two runs made at different moments.
    """
    spans = tracer.spans
    trials = [i for i, s in enumerate(spans) if s.label == "harness.run_trial"]
    n = len(trials)
    trial_s = sum(spans[i].seconds for i in trials)
    trial_set = set(trials)
    covered = defaultdict(float)        # trial span -> seconds of its direct children
    layer_s = defaultdict(float)        # module -> seconds of spans directly under a trial
    by_label = defaultdict(list)
    for s in spans:
        by_label[s.label].append(s.seconds)
        if s.parent in trial_set:
            covered[s.parent] += s.seconds
            layer_s[s.label.split(".")[0]] += s.seconds

    def ms_p50(label):
        return statistics.median(by_label[label]) * 1e3 if label in by_label else 0.0

    def total_ms(label):
        return sum(by_label.get(label, ())) * 1e3

    def share(label):
        return sum(by_label.get(label, ())) / trial_s

    def per_trial(label):
        return len(by_label.get(label, ())) / n

    def fft_mb(label):
        return tracer.fft_bytes.get(label, 0) / n / 1e6

    attempts = [r.ia_failure[m] for r in base.results for m in r.ia_failure if m in PHASE_METHODS]
    resolved = attempts.count(False)
    pool_wall = (pooled if pooled is not None else traced).wall_s
    metrics = {
        "channel.apply_channel.ms_p50": ms_p50("channel.apply_channel"),
        "channel.apply_channel.calls_per_trial": per_trial("channel.apply_channel"),
        "channel.apply_channel.share": share("channel.apply_channel"),
        "channel.apply_channel.fft_mb_per_trial": fft_mb("channel.apply_channel"),
        "channel.add_awgn.ms_p50": ms_p50("channel.add_awgn"),
        "channel.add_awgn.calls_per_trial": per_trial("channel.add_awgn"),
        "channel.draw_channel.ms_p50": ms_p50("channel.draw_channel"),
        "channel.ms_per_trial": layer_s["channel"] * 1e3 / n,
        "receiver.estimate_toa.share": share("receiver.estimate_toa"),
        "receiver.estimate_toa.calls_per_trial": per_trial("receiver.estimate_toa"),
        "receiver.estimate_toa.fft_mb_per_trial": fft_mb("receiver.estimate_toa"),
        "receiver.ccp_measure.ms_p50": ms_p50("receiver.ccp_measure"),
        "receiver.ccp_measure.share": share("receiver.ccp_measure"),
        "receiver.ccp_measure.calls_per_trial": per_trial("receiver.ccp_measure"),
        "receiver.ccp_measure.windows_per_trial":
            tracer.counts["receiver.ccp_measure.windows"] / n,
        "receiver.ccp_measure.window_mb":
            tracer.counts["receiver.ccp_measure.window_bytes"]
            / len(by_label["receiver.ccp_measure"]) / 1e6,
        "receiver.extract_phase.share": share("receiver.extract_phase"),
        "receiver.extract_phase.calls_per_trial": per_trial("receiver.extract_phase"),
        "receiver.extract_phase.fft_mb_per_trial": fft_mb("receiver.extract_phase"),
        "receiver.ms_per_trial": layer_s["receiver"] * 1e3 / n,
        "ambiguity.ia_search_toa.calls_per_trial": per_trial("ambiguity.ia_search_toa"),
        "ambiguity.widelane_resolve.calls_per_trial": per_trial("ambiguity.widelane_resolve"),
        "ambiguity.us_per_trial": layer_s["ambiguity"] * 1e6 / n,
        "ambiguity.attempts": len(attempts),
        "ambiguity.resolved": resolved,
        "ambiguity.resolved_ratio": resolved / len(attempts),
        "waveform.ofdm_modulate.ms": total_ms("waveform.ofdm_modulate"),
        "waveform.ofdm_modulate.calls": len(by_label.get("waveform.ofdm_modulate", ())),
        "harness.run_trial.self_ms_p50": statistics.median(
            (spans[i].seconds - covered[i]) * 1e3 for i in trials),
        "harness.cpu_per_wall": base.cpu_s / base.wall_s,
        "harness.compute_cdf.ms": total_ms("harness.compute_cdf"),
        "harness.emit_results.ms": total_ms("harness.emit_results"),
        "harness.pool.utilization": trial_s / (workers * pool_wall),
        "trace.coverage": sum(covered.values()) / trial_s,
        # Per-trial medians, so the first run's warm-up does not count as overhead.
        "trace.overhead": 1.0 - (statistics.median(base.trial_ms_at(reference_ms))
                                 / statistics.median(traced.trial_ms_at(reference_ms))),
    }
    stages = {label: {"calls": len(d), "ms_p50": ms_p50(label), "ms_total": total_ms(label),
                      "fft_mb": tracer.fft_bytes.get(label, 0) / 1e6}
              for label, d in sorted(by_label.items())}
    return metrics, stages


# --------------------------------------------------------------------- environment

def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read (never set) through its C API."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


# --------------------------------------------------------------------- entry points

def run_workload(workload, seed: int, seconds: float, trace: int) -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np
    import phasepos as pp
    from phasepos import harness

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"{workload.name}-seed{seed}-trace{trace}.check.csv"
    main_csv = OUT / f"{workload.name}-seed{seed}-trace{trace}.csv"
    full = n_trials(workload, seconds)
    trials = full if trace == 0 else max(2, full // 2)
    cfg = harness.ScenarioConfig(**scenario_fields(workload, seed, trials))
    ref_ms = workload.kernel_ms

    problems, samples, stages, raw = [], {}, {}, {}
    base = measure(pp, harness, cfg, 1, main_csv)
    others = []
    if trace == 0:
        setup = setup_seconds(workload, seed, trials, stream_length(pp, cfg))
        n = len(base.results)
        scale = base.scale(ref_ms)
        values = {
            "trials_per_s": n / (base.wall_s * scale),
            "trial_ms_p50": statistics.median(base.trial_ms_at(ref_ms)),
            "cpu_ms_per_trial": base.cpu_s * scale * 1e3 / n,
            "setup_s": statistics.median(s * ref_ms / k for s, k in setup),
            "peak_rss_mb": base.peak_rss_mib,
        }
        raw = {"trials_per_s": n / base.wall_s, "trial_ms_p50": statistics.median(base.trial_ms),
               "cpu_ms_per_trial": base.cpu_s * 1e3 / n,
               "setup_s": statistics.median(s for s, _ in setup),
               "kernel_ms_p50": statistics.median(base.kernel_ms)}
        samples = {"trials_per_s": n, "trial_ms_p50": n, "cpu_ms_per_trial": n,
                   "setup_s": len(setup), "peak_rss_mb": 1}
    else:
        tracer = spans.Tracer()
        traced = measure(pp, harness, cfg, 1, scratch, tracer)
        others.append(traced)
        pooled = None
        if workload.pool_workers:
            pooled = measure(pp, harness, cfg, workload.pool_workers, scratch)
            others.append(pooled)
        values, stages = layer_metrics(tracer, base, traced, pooled,
                                       workload.pool_workers or 1, ref_ms)

    # Correctness: the measured run against reference and invariants, every other
    # run of the same config (other worker count, traced) byte for byte against it.
    reference = load_reference(workload, seed)
    half_wave = half_wavelength_m(pp, cfg)
    bad = {}
    for i, r in enumerate(base.results):
        reason = check_trial(r, i, cfg, reference[i] if i < len(reference) else None, half_wave)
        if reason:
            bad[i] = reason
    for other in others:
        for i, (a, b) in enumerate(zip(base.results, other.results)):
            if not same_outputs(a, b):
                bad.setdefault(i, "outputs differ between runs of the same config")
        if other.csv != base.csv:
            problems.append("CSV differs between runs of the same config")
    if len(others) and any(len(o.results) != len(base.results) for o in others):
        problems.append("runs of the same config returned different trial counts")
    if (reason := check_csv(base, cfg)) is not None:
        problems.append(reason)
    problems.extend(f"trial {i}: {reason}" for i, reason in sorted(bad.items()))
    scratch.unlink(missing_ok=True)

    wanted = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    line = {"correct": not problems, "attempted": len(base.results), "failed": len(bad),
            "metrics": metrics}
    record = dict(line, workload=workload.name, why=workload.why, seconds=seconds, trace=trace,
                  pool_workers=workload.pool_workers, reference_trials=min(len(reference), trials),
                  samples=samples, as_measured=raw, stages=stages, problems=problems,
                  layer_targets=LAYER_TARGETS, environment=environment(np, seed))
    (OUT / f"{workload.name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"workload {workload.name}  seed {seed}  trace {trace}  trials {len(base.results)}")
    for name, m in metrics.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:42s} {m['value']!r} {m['unit']}{count}")
    for label, st in stages.items():
        print(f"  stage {label:36s} calls {st['calls']:4d}  ms_p50 {st['ms_p50']:.4f}")
    for problem in problems:
        print(f"  FAILED {problem}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload in its own process; one summary line over all of them."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", repr(seconds),
                               "--trace", str(trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode not in (0, 1):
            return proc.returncode
        line = json.loads(proc.stdout.splitlines()[-1])
        correct &= line["correct"]
        attempted += line["attempted"]
        failed += line["failed"]
        metrics.update({f"{name}.{k}": v for k, v in line["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; sizes the trial count (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "phasepos" / "__init__.py").is_file():
        print(f"benchmark: no phasepos sources under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args.seed, seconds, args.trace)
    return run_workload(WORKLOADS[args.workload], args.seed, seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
