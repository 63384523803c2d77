"""microflow benchmark: one workload per process, a closed loop of passes.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 20 --trace 0

Run from a repository checkout; the program is imported from ``src/``. The
loop starts the next pass only after the previous one returns, and keeps
going until ``--seconds`` have passed. With ``--trace 0`` the last line of
standard output is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics, derived from spans recorded
around every call into microflow on alternate passes. Earlier lines print the
environment, the input hash and the figures each workload is judged by.
The exit code is 1 when a correctness check fails and 2 when the program's
sources are missing.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import Tracer, median, self_times, tail  # noqa: E402

SETUPS = 5
MB = 2 ** 20

# name: (unit, better, bound). BENCHMARK.json lists the same metrics.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "session_s": ("s", "lower", 0.25),
    "solve_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

# Exact counts a pass reports; they must repeat on every pass.
COUNTS = ("irls.iterations", "svdfilt.low_cut", "unfolded.steps", "formats.dataset_mb")


def _calls(run, prefix):
    return sum(v[1] for k, v in run.items() if k.startswith(prefix))


def _busy(run, prefix):
    return sum(v[0] for k, v in run.items() if k.startswith(prefix))


def _per(num, den, scale=1.0):
    """num / den, or None when the run did no such work."""
    return scale * num / den if num and den else None


def _calls_of(prefix):
    return lambda r: _calls(r, prefix) or None


def _busy_of(*prefixes):
    return lambda r: sum(_busy(r, p) for p in prefixes) or None


def _peak_of(name):
    return lambda r: r[name][2] / MB if name in r else None


def _layer_rules(wl, counts, k_layers=0):
    """name -> (unit, better, rule); a rule maps one run's call table to a value or None.

    A None rule marks an exact count, taken from the pass's counts.
    """
    return {
        "irls.calls": ("count", "lower", _calls_of("irls.")),
        "irls.busy_s": ("s", "lower", _busy_of("irls.")),
        "irls.iterations": ("count", "lower", None),
        "irls.ms_per_iter": ("ms", "lower", lambda r: _per(
            _busy(r, "irls."), counts.get("irls.iterations", 0), 1e3)),
        "irls.peak_alloc_mb": ("MB", "lower", _peak_of("irls.run_irls")),
        "svdfilt.calls": ("count", "lower", _calls_of("svdfilt.")),
        "svdfilt.spectrum_s": ("s", "lower",
                               _busy_of("svdfilt.spectrum", "svdfilt.estimate_low_cut")),
        "svdfilt.filter_s": ("s", "lower", _busy_of("svdfilt.svd_clutter_filter")),
        "svdfilt.low_cut": ("count", "lower", None),
        "unfolded.infer_s": ("s", "lower", _busy_of("unfolded.infer")),
        "unfolded.ms_per_layer": ("ms", "lower", lambda r: _per(
            _busy(r, "unfolded.infer"), _calls(r, "unfolded.infer") * k_layers, 1e3)),
        "unfolded.train_s": ("s", "lower", _busy_of("unfolded.train")),
        "unfolded.steps": ("count", "lower", None),
        "unfolded.s_per_step": ("s", "lower", lambda r: _per(
            _busy(r, "unfolded.train"), counts.get("unfolded.steps", 0))),
        "unfolded.train_peak_alloc_mb": ("MB", "lower", _peak_of("unfolded.train")),
        "phantom.build_s": ("s", "lower", _busy_of("phantom.build_phantom")),
        "phantom.ms_per_frame": ("ms", "lower", lambda r: _per(
            _busy(r, "phantom.synthesize_iq"), wl.synth_frames, 1e3)),
        "phantom.roi_s": ("s", "lower", _busy_of("phantom.roi_masks")),
        "phantom.synth_peak_alloc_mb": ("MB", "lower", _peak_of("phantom.synthesize_iq")),
        "formats.write_dataset_s": ("s", "lower", _busy_of("formats.write_dataset")),
        "formats.read_dataset_s": ("s", "lower", _busy_of("formats.read_dataset")),
        "formats.dataset_mb": ("MB", "lower", None),
        "formats.read_peak_alloc_mb": ("MB", "lower", _peak_of("formats.read_dataset")),
        "formats.image_write_s": ("s", "lower",
                                  _busy_of("formats.write_csv", "formats.write_pgm")),
        "metrics.calls": ("count", "lower", _calls_of("metrics.")),
        "metrics.busy_s": ("s", "lower", _busy_of("metrics.")),
    }


# Per-layer metrics that are not module tables.
EXTRA_LAYER = {
    "trace.overhead_s": ("s", "lower"),
    "blas.recovery_1thread_s": ("s", "lower"),
}


def per_layer_units():
    """name -> (unit, better) for every per-layer metric, in report order."""
    rules = _layer_rules(None, {})
    out = {name: spec[:2] for name, spec in rules.items()}
    out.update(EXTRA_LAYER)
    return out


def call_tables(spans):
    """run id -> call name -> [self seconds, calls, peak alloc bytes]."""
    runs = {}
    for span, own in zip(spans, self_times(spans)):
        if span.name.startswith("stage:"):
            continue
        row = runs.setdefault(span.run_id, {}).setdefault(span.name, [0.0, 0, 0])
        row[0] += own
        row[1] += 1
        row[2] = max(row[2], span.peak_alloc)
    return runs


def layer_metrics(wl, spans, counts, k_layers):
    """Median over traced runs (passes or set-ups) of each layer figure; 0 where unused."""
    tables = call_tables(spans)
    out = {}
    for name, (_, _, rule) in _layer_rules(wl, counts, k_layers).items():
        if rule is None:
            out[name] = float(counts.get(name, 0))
            continue
        values = [v for v in (rule(t) for t in tables.values()) if v is not None]
        out[name] = float(median(values)) if values else 0.0
    return out


def _openblas_libs():
    """Paths of the OpenBLAS libraries loaded into this process (Linux)."""
    try:
        with open("/proc/self/maps") as fh:
            return sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    except OSError:
        return []


def _blas_query(lib, stem, restype):
    for name in (f"scipy_openblas_{stem}64_", f"scipy_openblas_{stem}",
                 f"openblas_{stem}64_", f"openblas_{stem}"):
        try:
            fn = getattr(lib, name)
        except AttributeError:
            continue
        fn.argtypes = []
        fn.restype = restype
        return fn()
    return None


def environment():
    """BLAS library, version and thread count, core count, interpreter and packages."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libs = []
    for path in _openblas_libs():
        lib = ctypes.CDLL(path)
        config = _blas_query(lib, "get_config", ctypes.c_char_p)
        libs.append({"library": os.path.basename(path),
                     "config": config.decode() if config else None,
                     "threads": _blas_query(lib, "get_num_threads", ctypes.c_int)})
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_libraries": libs,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def import_seconds():
    """Time of ``import microflow`` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import microflow; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def single_thread_reference(seed):
    """Seconds of one untraced recovery pass in a child with one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--single-pass", "--workload", "recovery",
                          "--seed", str(seed)], capture_output=True, text=True, timeout=150,
                         check=True, env=env)
    return float(out.stdout.split()[-1])


def run_passes(wl, inputs, seconds, traced, workdir):
    """Closed loop until the time is up; traced runs alternate untraced and traced passes."""
    from workloads import PassResult

    off, on = Tracer(False), Tracer(True)
    passes = []
    min_passes = 4 if traced else 2
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        tr = on if traced and len(passes) % 2 == 1 else off
        tr.run_id = f"pass-{len(passes)}"
        if tr.enabled:
            tracemalloc.start()
        try:
            res = wl.run_pass(inputs, tr, workdir)
        except Exception as exc:  # a call that raises is a failed call; report it and stop
            traceback.print_exc()
            res = PassResult(failures=[f"pass {len(passes)} raised {exc!r}"])
        finally:
            if tr.enabled:
                tracemalloc.stop()
        passes.append((tr.enabled, res))
        if res.failures:
            break
    return passes, off.calls + on.calls, on


def _fmt(name, value, unit, note=""):
    return f"  {name:<30} {value:>14.6g} {unit:<10} {note}".rstrip()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("recovery", "desk", "train"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--single-pass", action="store_true",
                    help="set up once, run one untraced pass and print its seconds")
    args = ap.parse_args(argv)

    if not (SRC / "microflow" / "__init__.py").is_file():
        print(f"perfbench: no microflow sources at {SRC}; run it from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy and microflow

    wl = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.single_pass:
            inputs, _ = wl.setup(args.seed, Tracer(False))
            print(wl.run_pass(inputs, Tracer(False), workdir).session_s)
            return 0
        return measure(wl, args, workdir, workloads.K_LAYERS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(wl, args, workdir, k_layers):
    traced = bool(args.trace)
    env = environment()

    # Set-up, several times: import in a fresh interpreter plus input generation.
    setup_tr = Tracer(traced)
    setup_s, hashes = [], []
    for i in range(SETUPS):
        imp = import_seconds()
        setup_tr.run_id = f"setup-{i}"
        if traced:
            tracemalloc.start()
        start = time.perf_counter()
        inputs, sha = wl.setup(args.seed, setup_tr)
        setup_s.append(imp + time.perf_counter() - start)
        if traced:
            tracemalloc.stop()
        hashes.append(sha)

    passes, attempted, on = run_passes(wl, inputs, args.seconds, traced, workdir)
    results = [res for _, res in passes]
    first = results[0]
    failures = [f for res in results for f in res.failures]
    if len(set(hashes)) != 1:
        failures.append(f"set-ups of one seed made different inputs: {sorted(set(hashes))}")
    for i, res in enumerate(results[1:], 1):
        if res.counts != first.counts:
            failures.append(f"pass {i} counts {res.counts} differ from pass 0 {first.counts}")
    failed = len(failures)
    attempted = max(attempted, failed, 1)
    if not all(res.samples for res in results):  # a pass raised: nothing to measure
        for f in failures:
            print(f"FAILED: {f}")
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    samples = {}
    for res in results:
        for step, secs in res.samples.items():
            samples.setdefault(step, []).extend(secs)
    untraced = [res.session_s for t, res in passes if not t]
    solves = samples[wl.solver]
    e2e = {
        "setup_s": median(setup_s),
        "session_s": median(untraced),
        "solve_ms": 1e3 * median(solves),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"(traced {len(passes) - len(untraced)}) calls={attempted}")
    print(f"input_sha256 {hashes[0]}")
    print("env " + json.dumps(env, sort_keys=True))
    print("end-to-end" + (" (untraced passes of a traced run)" if traced else ""))
    notes = {"setup_s": f"median of {len(setup_s)} set-ups",
             "session_s": f"median of {len(untraced)} passes",
             "solve_ms": f"median of {len(solves)} {wl.solver} calls",
             "peak_rss_mb": "ru_maxrss of this process"}
    for name, (unit, _, _) in END_TO_END.items():
        print(_fmt(name, e2e[name], unit, notes[name]))
    print("workload figures")
    for name, (step, frames) in wl.fps.items():
        print(_fmt(name, frames / median(samples[step]), "frames/s",
                   f"median of {len(samples[step])} calls, {frames} frames each"))
    for name, step in wl.tails.items():
        pct = tail(samples[step])
        if pct is not None:
            print(_fmt(name, 1e3 * pct[1], "ms", f"p{pct[0]:.0f} of {len(samples[step])} calls"))
    for name, unit in wl.quality_units.items():
        print(_fmt(name, first.quality[name], unit))
    print(_fmt("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted} calls"))
    units = per_layer_units()
    for name in COUNTS:
        if name in first.counts:
            print(_fmt(name, first.counts[name], units[name][0], "per pass, exact"))

    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "input_sha256": hashes[0], "env": env, "setup_s": setup_s,
              "passes": [{"traced": t, "session_s": r.session_s, "samples": r.samples,
                          "counts": r.counts, "quality": r.quality} for t, r in passes],
              "end_to_end": e2e, "failures": failures}
    if traced:
        spans = setup_tr.spans + on.spans
        layers = layer_metrics(wl, spans, first.counts, k_layers)
        traced_s = [res.session_s for t, res in passes if t]
        layers["trace.overhead_s"] = median(traced_s) - median(untraced)
        reference = single_thread_reference(args.seed)
        layers["blas.recovery_1thread_s"] = reference
        print("per-layer (traced passes; counts per pass)")
        for name, (unit, _) in per_layer_units().items():
            print(_fmt(name, layers[name], unit))
        print(f"reference: one recovery pass with OPENBLAS_NUM_THREADS=1 took {reference:.4f} s")
        record.update(per_layer=layers, spans=setup_tr.dump() + on.dump(),
                      reference={"recovery_1thread_s": reference})
        metrics = {n: {"value": layers[n], "unit": u} for n, (u, _) in per_layer_units().items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, (u, _, _) in END_TO_END.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    for f in failures:
        print(f"FAILED: {f}")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
