"""lndkit benchmark: one workload per run, as a closed loop with one client.

    python3 perfbench/run.py --workload ideal --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

A single process, with no extra threads, runs the next job only when the
previous one has returned, the way a user waits for one exact answer.
Jobs come in rounds (see inputs.py); the run repeats whole rounds until
``--seconds`` of timed wall clock have passed, so every run measures the
same mix of jobs. Before timing, one warm-up round is run and its
answers are checked (jobs.py); a timed job counts as correct only if it
returns exactly the checked answer.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it runs untraced rounds for half the time and traced rounds
for the other half, and reports the per-layer metrics of the traced
rounds and the tracing overhead (spans.py). The last line
of standard output is one JSON object: correct, attempted, failed,
metrics. ``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs
import metrics as stats
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("ideal", "lnd", "dossier")
# A job that runs this long is stopped and counted as failed. The
# slowest job at the first benchmarked commit takes about 1.3 s.
JOB_CAP_S = 10
SETUP_SAMPLES = 15
# what a fresh interpreter imports before the workload's first job
SETUP_IMPORT = {"ideal": "lndkit", "lnd": "lndkit", "dossier": "lndkit.cli"}
END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job; BaseException so lndkit's own
    ``except ValueError`` style handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_capped(jobs, spec):
    """(value, extra, error) of one job under the wall-clock cap."""
    signal.alarm(JOB_CAP_S)
    try:
        value, extra = jobs.run(spec)
        return value, extra, None
    except JobTimeout:
        return None, None, f"exceeded the {JOB_CAP_S} s job cap"
    except Exception as exc:  # a failed job is counted, the run goes on
        return None, None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.alarm(0)


def measure_setup(module: str) -> float:
    """Median time of ``import <module>`` in fresh interpreters, each
    scaled to the reference speed by a Meter in that interpreter.

    The first interpreter is not counted: it may compile the bytecode
    cache, which an installed lndkit already has.
    """
    code = (
        "import sys; sys.path.insert(0, {here!r}); import speed\n"
        "with speed.Meter() as meter: import {m}\n"
        "import lndkit; print(meter.scaled, lndkit.__file__)"
    ).format(here=str(HERE), m=module)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # an installed lndkit has its bytecode cache; let the first run write it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
            check=True,
        )
        seconds, path = proc.stdout.split()
        if Path(path).resolve().parent != SRC / "lndkit":
            raise RuntimeError(f"imported lndkit from {path}, not from {SRC}")
        if k:
            samples.append(float(seconds))
    return statistics.median(samples)


def prepare(workload: str, seed: int, work: Path) -> list[dict]:
    """The round's jobs; the dossier workload's files are written here."""
    if workload != "dossier":
        return inputs.ROUNDS[workload](seed)
    jobs, files = inputs.dossier_round(seed)
    work.mkdir(parents=True, exist_ok=True)
    for name, doc in files.items():
        (work / name).write_text(json.dumps(doc, indent=1))
    for spec in jobs:
        if spec["file"] in files:
            spec["argv"][1] = str((work / spec["file"]).relative_to(ROOT))
    return jobs


def run_rounds(jobs_mod, jobs, reference, seconds, skip, recorder=None):
    """Whole rounds until `seconds` have passed.

    Returns (times, matches, wall): times[i] lists job i's time in each
    round, scaled to the reference speed (speed.py); matches tells, in run
    order, whether each answer equals the checked warm-up answer (answers
    are not kept, so they do not count in peak RSS); wall is the unscaled
    duration of the rounds.
    """
    times = {i: [] for i in range(len(jobs)) if i not in skip}
    matches = []
    start = perf_counter()
    while True:
        for i, spec in enumerate(jobs):
            if i in skip:
                matches.append(False)
                continue
            if recorder is not None:
                recorder.job = len(matches)
            with speed.Meter() as meter:
                value, _, _ = run_capped(jobs_mod, spec)
            times[i].append(meter.scaled)
            matches.append(value is not None and value == reference[i])
        if perf_counter() - start >= seconds:
            return times, matches, perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lndkit" / "__init__.py").is_file():
        print(f"error: no lndkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    signal.signal(signal.SIGALRM, _on_alarm)
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, lines = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def run_workload(args, work: Path):
    import jobs as jobs_mod

    workload, seed = args.workload, args.seed
    setup_s = measure_setup(SETUP_IMPORT[workload]) if not args.trace else None
    jobs = prepare(workload, seed, work)

    # warm-up round: its answers are the ones checked
    reference, extras, errors = [], [], {}
    for i, spec in enumerate(jobs):
        value, extra, error = run_capped(jobs_mod, spec)
        reference.append(value)
        extras.append(extra)
        if error:
            errors[i] = ("error", f"{jobs_mod.label(spec)}: {error}")
    failures = {**jobs_mod.check_round(jobs, reference, extras), **errors}
    del extras
    # a job that overran in the warm-up is not run again, only counted
    skip = {i for i, (_, msg) in errors.items() if "job cap" in msg}

    lines = [f"{workload}: seed {seed}, {len(jobs)} jobs per round"]
    if args.trace:
        import spans

        # half the time untraced, half traced: the overhead compares them
        plain, _, _ = run_rounds(jobs_mod, jobs, reference, args.seconds / 2, skip)
        recorder = spans.Recorder()
        uninstall = spans.install(recorder)
        try:
            times, matches, wall = run_rounds(
                jobs_mod, jobs, reference, args.seconds / 2, skip, recorder
            )
        finally:
            uninstall()
        rounds = len(matches) // len(jobs)
        metrics = spans.layer_metrics(recorder, rounds)
        # throughput untraced over traced, both at the reference speed
        metrics["trace.overhead_frac"] = (
            stats.job_times(plain)[0] / stats.job_times(times)[0] - 1
        )
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{workload}-{seed}.tsv.gz"
        recorder.write(span_file)
        lines.append(
            f"  {len(recorder.start)} spans over {rounds} traced rounds"
            f" written to {span_file.relative_to(ROOT)}"
        )
        units = {name: _layer_unit(name) for name in metrics}
    else:
        times, matches, wall = run_rounds(
            jobs_mod, jobs, reference, args.seconds, skip
        )
        rounds = len(matches) // len(jobs)
        per_s, p50, (tail_s, tail_p, count) = stats.job_times(times)
        metrics = {
            "jobs_per_s": per_s,
            "job_p50_s": p50,
            "job_tail_s": tail_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        lines.append(f"  job_tail_s is the p{tail_p:g} of {count} job times")

    failed = 0
    for k, match in enumerate(matches):
        i = k % len(jobs)
        if i not in failures and not match:
            failures[i] = (
                "nondeterministic",
                f"{jobs_mod.label(jobs[i])}: a timed run raised or gave"
                " another answer than the checked warm-up run",
            )
        failed += i in failures
    known = {k for k, _ in failures.values()} <= set(jobs_mod.KNOWN_DEFECTS)
    lines.append(
        f"  {len(matches)} jobs in {rounds} rounds, {wall:.3f} s timed wall clock;"
        f" fail_frac {failed / len(matches):.4f} ({failed}/{len(matches)})"
    )
    for i, (kind, msg) in sorted(failures.items()):
        tag = "known defect" if kind in jobs_mod.KNOWN_DEFECTS else "UNEXPECTED"
        lines.append(f"  failed job {i} [{tag}: {kind}] {msg}")
    for name, value in metrics.items():
        lines.append(f"  {name:<36} {value:>14.6g} {units[name]}")
    result = {
        "correct": known,
        "attempted": len(matches),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    return result, lines


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS and set-up are its own."""
    combined, code = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            code = proc.returncode
            continue
        combined[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    if code:
        return code
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
