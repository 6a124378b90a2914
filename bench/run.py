"""The repository benchmark: regenerating the paper, cold and warm, a
continuous-window design sweep, and a split-window sweep.

Usage (from the repository root)::

    python bench/run.py                      # all workloads, seed 0
    python bench/run.py --workload paper-warm --seed 3 --seconds 30
    python bench/run.py --trace              # per-layer metrics
    python bench/run.py --smoke              # tiny sizes, one repetition

Every repetition is a fresh child process, one at a time, with every
``REPRO_*`` variable removed and ``PYTHONHASHSEED=0``. A workload
repeats until ``--seconds`` have passed since it started, counting any
untimed preparation (at least three times, and once per program seed
of :data:`SUBSEEDS`). Times are rescaled to the host's full speed by
probes interleaved with the work (``speed.py``) and averaged over the
program seeds (see :func:`end_to_end`). Every output is checked:
artifact JSON files and sweep cells must match
``bench/expected/seed<N>.json`` when it exists, and otherwise must
agree between repetitions and between workloads of one invocation.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 when
every check passed, 1 when one failed and 2 when the benchmark cannot
run (for instance, no ``src/`` next to ``bench/``).

With ``--trace`` (``--trace 1``) each workload instead alternates
untraced and traced repetitions and reports the per-layer metrics of
``BENCHMARK.json``; spans land in ``bench/out/<workload>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from child import cell_names
from layers import ARTIFACTS, layer_metrics
from spec import (
    BENCH_DIR, REPO_ROOT, load_spec, median, metric_units, quartiles,
    workload_names,
)
from speed import normalized_s, probe
from tracing import END, read_spans

OUT_DIR = os.path.join(BENCH_DIR, "out")
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")
RECORDS_DIR = os.path.join(BENCH_DIR, "records")
CHILD = os.path.join(BENCH_DIR, "child.py")

SPLIT_ARTIFACTS = ("figure7", "figure7-sweep", "ablation-split")


@dataclass(frozen=True)
class Sizes:
    """Run lengths: ``(timed, warm-up)`` instructions per simulation;
    whether repetitions rotate through :data:`SUBSEEDS` program seeds."""

    cli: tuple
    sweep: tuple
    min_units: int
    name: str
    subseeds: bool


#: The longest runs that still fit three repetitions in a 30 s run:
#: cold ``all`` (486 simulations) and the sweep (126 cells) each take
#: 6-11 s. ``bench/README.md`` says what the short CLI runs cost in
#: fidelity.
FULL = Sizes(cli=(300, 200), sweep=(3000, 1875), min_units=3, name="full",
             subseeds=True)
SMOKE = Sizes(cli=(40, 20), sweep=(100, 60), min_units=1, name="smoke",
              subseeds=False)

#: Program seeds per workload seed. Repetition ``k`` of a run with
#: ``--seed S`` gives the program seed ``SEED_STRIDE * S + k % K``, and
#: each time is averaged over the K seeds, so the seed moves the work
#: less (``bench/README.md``, Noise). ``paper-warm`` reads stores one
#: untimed run fills, so it keeps one seed. ``split-sweep``, whose time
#: moves most with the seed, takes as many seeds as it has repetitions.
SEED_STRIDE = 16
SUBSEEDS = {"paper-cold": 3, "paper-warm": 1, "core-sweep": 3,
            "split-sweep": 10}

#: No repetition starts that would end past this many seconds into a
#: workload, and a child still running at ``KILL_S`` is killed, so one
#: invocation for one workload always ends within 180 s.
BUDGET_S = 150.0
KILL_S = 170.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (exit code 2)."""


@dataclass
class Unit:
    """One repetition: one child process and what it produced."""

    #: the program seed it ran
    seed: int
    launch_ns: int
    end_ns: int
    rss_mb: float
    exit_code: int
    #: host-speed probes around and, for a metered child, inside it
    probes: List[tuple]
    #: output name -> sha256 of its content
    outputs: Dict[str, str] = field(default_factory=dict)
    #: outputs produced but wrong for a reason other than content
    bad: set = field(default_factory=set)
    report: dict = field(default_factory=dict)
    spans: Optional[list] = None

    @property
    def wall_ns(self) -> int:
        return self.end_ns - self.launch_ns

    @property
    def wall_s(self) -> float:
        return self.wall_ns / 1e9

    @property
    def work_s(self) -> float:
        """Wall time less the child's own probes."""
        inside = sum(e - s for s, e in self.probes
                     if s >= self.launch_ns and e <= self.end_ns)
        return (self.wall_ns - inside) / 1e9

    @property
    def norm_wall_s(self) -> float:
        """Launch to exit at the host's full speed (``speed.py``)."""
        return normalized_s(self.probes, self.launch_ns, self.end_ns)

    @property
    def setup_s(self) -> float:
        """Launch to the end of set-up at the host's full speed."""
        end = self.report.get("setup_end_ns", self.end_ns)
        return normalized_s(self.probes, self.launch_ns, end)


class Context:
    """State of one invocation: settings, scratch space and checks."""

    def __init__(self, seed: int, seconds: float, trace: bool,
                 sizes: Sizes, src: str, expected: Dict[str, str]) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes
        self.src = src
        #: ``<program seed>/<output name>`` -> digest every later copy
        #: must match
        self.reference = dict(expected)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.workload = ""
        self.deadline = 0.0
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = src
        self.env["PYTHONHASHSEED"] = "0"
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    @property
    def subseeds(self) -> int:
        return SUBSEEDS[self.workload] if self.sizes.subseeds else 1

    def program_seed(self, k: int) -> int:
        """The program seed of the workload's repetition *k*."""
        return SEED_STRIDE * self.seed + k % self.subseeds

    def check(self, unit: Unit, names: Sequence[str], label: str) -> None:
        """Count every expected output of *unit*; a missing, flagged or
        different one fails."""
        for name in names:
            self.attempted += 1
            got = unit.outputs.get(name)
            key = f"{unit.seed}/{name}"
            if unit.exit_code != 0 or got is None:
                why = f"exit {unit.exit_code}" if unit.exit_code else "missing"
            elif name in unit.bad:
                why = "simulated on warm stores"
            elif self.reference.setdefault(key, got) != got:
                why = "differs from the reference"
            else:
                continue
            self.failed += 1
            self.problems.append(f"{self.workload} {label}: {key}: {why}")


# -- child processes ---------------------------------------------------------


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_child(ctx: Context, argv: List[str], work: str, seed: int) -> Unit:
    """Run *argv* in *work* to completion and collect what every child
    leaves: its rusage, its ``out.json`` report and its spans. A probe
    of the host's speed runs right before the launch and right after
    the exit.

    Standard error goes to ``work/stderr.txt`` and is echoed when the
    child fails. A traced child's spans gain a top-level ``shutdown``
    span, from its last span to its exit as seen here.
    """
    env = dict(ctx.env)
    with open(os.path.join(work, "stderr.txt"), "wb") as err:
        before = probe()
        start = time.monotonic_ns()
        env["BENCH_LAUNCH_NS"] = str(start)
        proc = subprocess.Popen(
            argv, env=env, cwd=work, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        killer = threading.Timer(
            max(1.0, ctx.deadline - time.monotonic()), proc.kill
        )
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.monotonic_ns()
        after = probe()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        with open(os.path.join(work, "stderr.txt"), "rb") as handle:
            tail = handle.read()[-2000:].decode("utf-8", "replace")
        print(f"[{ctx.workload}] child exited {code}: {' '.join(argv)}\n"
              f"{tail}", file=sys.stderr)

    unit = Unit(seed=seed, launch_ns=start, end_ns=end,
                rss_mb=usage.ru_maxrss / 1024.0, exit_code=code,
                probes=[before, after])
    out = os.path.join(work, "out.json")
    if os.path.exists(out):
        with open(out, "r", encoding="utf-8") as handle:
            unit.report.update(json.load(handle))
        unit.probes += [tuple(p) for p in unit.report.pop("probes", ())]
    spans = os.path.join(work, "spans.jsonl")
    if os.path.exists(spans):
        unit.spans = read_spans(spans)
        last = max(span[END] for span in unit.spans)
        unit.spans.append([len(unit.spans) + 1, None, "shutdown", last, end,
                           ctx.workload, None])
    return unit


def cli_unit(ctx: Context, artifacts: Sequence[str], stores: Optional[str],
             seed: int, traced: bool = False, split: bool = True) -> Unit:
    """``repro-experiments ARTIFACTS --seed SEED`` with the result and
    trace stores in *stores* (``None``: no stores). Set-up is launch to
    the start of the first artifact. *split* is false for a run that
    simulates nothing, whose traced child then leaves the event-driven
    engine unloaded, as the program does."""
    with tempfile.TemporaryDirectory(dir=ctx.tmp) as work:
        json_dir = os.path.join(work, "json")
        telemetry = os.path.join(work, "telemetry.jsonl")
        timing, warmup = ctx.sizes.cli
        args = list(artifacts) + [
            "--timing", str(timing), "--warmup", str(warmup),
            "--seed", str(seed), "--json", json_dir,
            "--telemetry", telemetry,
        ]
        if stores is not None:
            args += ["--store", os.path.join(stores, "results"),
                     "--trace-store", os.path.join(stores, "traces")]
        argv = [sys.executable, CHILD, "cli",
                "--out", os.path.join(work, "out.json")]
        if traced:
            argv += ["--spans", os.path.join(work, "spans.jsonl"),
                     "--workload", ctx.workload]
            argv += ["--split"] if split else []
        else:
            argv += ["--meter"]
        unit = run_child(ctx, argv + ["--"] + args, work, seed)

        events = []
        if os.path.exists(telemetry):
            with open(telemetry, "r", encoding="utf-8") as handle:
                events = [json.loads(line) for line in handle
                          if line.strip()]
        for name in ARTIFACTS if list(artifacts) == ["all"] else artifacts:
            path = os.path.join(json_dir, f"{name}.json")
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    unit.outputs[name] = _sha256(handle.read())
    unit.report["simulated"] = sorted(
        e["artifact"] for e in events
        if e["event"] == "artifact_finish" and e.get("simulations")
    )
    return unit


def sweep_unit(ctx: Context, seed: int, traced: bool = False,
               backend: Optional[str] = None) -> Unit:
    """One ``core-sweep`` child; set-up is launch to traces acquired."""
    with tempfile.TemporaryDirectory(dir=ctx.tmp) as work:
        timing, warmup = ctx.sizes.sweep
        argv = [sys.executable, CHILD, "sweep",
                "--out", os.path.join(work, "out.json"),
                "--seed", str(seed), "--timing", str(timing),
                "--warmup", str(warmup)]
        if traced:
            argv += ["--spans", os.path.join(work, "spans.jsonl"),
                     "--workload", ctx.workload]
        else:
            argv += ["--meter"]
        if backend:
            argv += ["--backend", backend]
        unit = run_child(ctx, argv, work, seed)
    for cell in unit.report.get("cells", ()):
        unit.outputs[cell["cell"]] = _sha256(
            json.dumps(cell["row"], sort_keys=True).encode("utf-8")
        )
    return unit


# -- measurement -------------------------------------------------------------


def repeat(ctx: Context, step: Callable[[int], List[Unit]],
           started: float) -> List[Unit]:
    """Call *step* for every program seed of the workload and at least
    ``min_units`` times, and then while the next call is expected to end
    within ``ctx.seconds`` of *started* (the workload's start) and
    within the budget."""
    units: List[Unit] = []
    durations: List[float] = []
    needed = max(ctx.sizes.min_units, ctx.subseeds)
    while True:
        t0 = time.monotonic()
        units.extend(step(len(durations)))
        durations.append(time.monotonic() - t0)
        now = time.monotonic()
        estimate = median(durations)
        if now - started + estimate > BUDGET_S:
            break
        if (len(durations) >= needed
                and now - started + estimate > ctx.seconds):
            break
    return units


def seed_mean(units: List[Unit], value: Callable[[Unit], float]) -> float:
    """The mean over program seeds of the median *value* of each seed's
    repetitions."""
    groups: Dict[int, List[float]] = {}
    for u in units:
        groups.setdefault(u.seed, []).append(value(u))
    return sum(median(v) for v in groups.values()) / len(groups)


def end_to_end(units: List[Unit]) -> tuple:
    """``(metrics, samples)`` of untraced repetitions.

    ``norm_wall_s`` and ``setup_s`` are times at the host's full speed
    (``speed.py``): per program seed the median over its repetitions,
    then the mean over the seeds. Peak memory is the mean over
    repetitions, which keeps every digit of the per-child readings. The
    raw wall times are kept as samples, not reported.
    """
    samples = {
        "norm_wall_s": [u.norm_wall_s for u in units],
        "setup_s": [u.setup_s for u in units],
        "peak_rss_mb": [u.rss_mb for u in units],
        "wall_s": [u.wall_s for u in units],
    }
    metrics = {
        "norm_wall_s": seed_mean(units, lambda u: u.norm_wall_s),
        "setup_s": seed_mean(units, lambda u: u.setup_s),
        "peak_rss_mb": sum(samples["peak_rss_mb"]) / len(units),
    }
    return metrics, samples


def measure(ctx: Context, unit: Callable[[bool, int], Unit],
            names: Sequence[str], started: float) -> tuple:
    """Run one workload's repetitions; ``(metrics, samples)``.
    ``unit(traced, seed)`` runs one repetition.

    Untraced: every repetition is timed. Traced: pairs of an untraced
    and a traced repetition, alternating which goes first; the layer
    metrics are medians over the traced ones and the overhead compares
    the fastest of each half, leaving out the untraced probes.
    """
    if not ctx.trace:
        units = repeat(ctx, lambda k: [unit(False, ctx.program_seed(k))],
                       started)
        for k, u in enumerate(units):
            ctx.check(u, names, f"repetition {k + 1}")
        return end_to_end(units)

    def pair(k: int) -> List[Unit]:
        order = (False, True) if k % 2 == 0 else (True, False)
        return [unit(traced, ctx.program_seed(k)) for traced in order]

    units = repeat(ctx, pair, started)
    for k, u in enumerate(units):
        ctx.check(u, names, f"{'traced ' if u.spans else ''}repetition "
                            f"{k // 2 + 1}")
    plain = [u for u in units if u.spans is None]
    traced = [u for u in units if u.spans is not None]
    if not traced:
        raise BenchError(f"{ctx.workload}: no traced repetition finished")
    per_unit = [layer_metrics(u.spans, u.report.get("stats", {}), u.wall_ns)
                for u in traced]
    samples = {key: [m[key] for m in per_unit] for key in per_unit[0]}
    overhead = (min(u.wall_s for u in traced)
                / min(u.work_s for u in plain) - 1.0)
    samples["trace_overhead_frac"] = [overhead]
    with open(os.path.join(OUT_DIR, f"{ctx.workload}.spans.jsonl"), "w",
              encoding="utf-8") as handle:
        for index, u in enumerate(traced):
            for span in u.spans:
                handle.write(json.dumps({"unit": index, "span": span}) + "\n")
    return {k: median(v) for k, v in samples.items()}, samples


def paper_cold(ctx: Context, started: float) -> tuple:
    def unit(traced: bool, seed: int) -> Unit:
        with tempfile.TemporaryDirectory(dir=ctx.tmp) as stores:
            return cli_unit(ctx, ["all"], stores, seed, traced)

    return measure(ctx, unit, ARTIFACTS, started)


def paper_warm(ctx: Context, started: float) -> tuple:
    stores = tempfile.mkdtemp(dir=ctx.tmp)
    filled = ctx.program_seed(0)
    ctx.check(cli_unit(ctx, ["all"], stores, filled), ARTIFACTS,
              "store fill")

    def unit(traced: bool, seed: int) -> Unit:
        # A seed the fill did not run would simulate, and fail.
        got = cli_unit(ctx, ["all"], stores, seed, traced, split=False)
        got.bad.update(got.report["simulated"])
        return got

    return measure(ctx, unit, ARTIFACTS, started)


def core_sweep(ctx: Context, started: float) -> tuple:
    names = cell_names()
    metrics, samples = measure(
        ctx, lambda traced, seed: sweep_unit(ctx, seed, traced), names,
        started,
    )
    if ctx.trace:
        vector = sweep_unit(ctx, ctx.program_seed(0), traced=True,
                            backend="vector")
        ctx.check(vector, names, "vector pass")
        if vector.spans is not None:
            layers = layer_metrics(vector.spans, vector.report["stats"],
                                   vector.wall_ns)
            for key, value in layers.items():
                if key.startswith("core.vector."):
                    metrics[key] = value
                    samples[key] = [value]
    return metrics, samples


def split_sweep(ctx: Context, started: float) -> tuple:
    return measure(
        ctx,
        lambda traced, seed: cli_unit(ctx, SPLIT_ARTIFACTS, None, seed,
                                      traced),
        SPLIT_ARTIFACTS, started,
    )


WORKLOADS = {
    "paper-cold": paper_cold,
    "paper-warm": paper_warm,
    "core-sweep": core_sweep,
    "split-sweep": split_sweep,
}


# -- reporting ---------------------------------------------------------------


def host_facts() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def _metric_block(metrics: Dict[str, float], units: Dict[str, str]) -> dict:
    return {name: {"value": metrics[name], "unit": units[name]}
            for name in units}


def _print_table(workload: str, samples: Dict[str, List[float]],
                 metrics: Dict[str, float], units: Dict[str, str]) -> None:
    for name in units:
        values = samples.get(name, [metrics[name]])
        q1, mid, q3 = quartiles(values)
        print(f"{workload:12s} {name:34s} {metrics[name]:14.6g} "
              f"{units[name]:6s} n={len(values):<3d} "
              f"q1={q1:.6g} median={mid:.6g} q3={q3:.6g}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Run the repository benchmark (see bench/README.md).",
    )
    parser.add_argument("--workload", default="all",
                        help="one workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0; 1 is held out)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics from traced "
                             "repetitions instead of end-to-end ones")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one repetition: checks the "
                             "benchmark runs, measures nothing")
    parser.add_argument("--record", metavar="NAME",
                        help="also write bench/records/NAME.json")
    parser.add_argument("--write-expected", action="store_true",
                        help="write bench/expected/seed<N>.json from this "
                             "run's outputs (all workloads)")
    parser.add_argument("--src", default=os.path.join(REPO_ROOT, "src"),
                        help="source tree to benchmark (default: src/ "
                             "next to bench/)")
    args = parser.parse_args(argv)
    if args.smoke and (args.record or args.write_expected):
        parser.error("--smoke measures nothing: it cannot be recorded")
    if args.write_expected and args.workload != "all":
        parser.error("--write-expected needs --workload all")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = workload_names(spec)
    if args.workload != "all" and args.workload not in names:
        print(f"bench: unknown workload {args.workload!r}; one of "
              f"{', '.join(names)} or all", file=sys.stderr)
        return 2
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "repro", "experiments",
                                       "cli.py")):
        print(f"bench: no repro source tree at {src}", file=sys.stderr)
        return 2

    sizes = SMOKE if args.smoke else FULL
    seconds = 0.0 if args.smoke else (
        args.seconds if args.seconds is not None else spec["run_seconds"]
    )
    expected = {}
    expected_path = os.path.join(EXPECTED_DIR, f"seed{args.seed}.json")
    if not args.smoke and not args.write_expected and os.path.exists(
        expected_path
    ):
        with open(expected_path, "r", encoding="utf-8") as handle:
            expected = json.load(handle)["outputs"]
    units = metric_units(spec, "per_layer" if args.trace else "end_to_end")
    selected = names if args.workload == "all" else [args.workload]

    ctx = Context(args.seed, seconds, bool(args.trace), sizes, src, expected)
    results = {}
    try:
        # Compile the sources once, untimed, so no repetition pays for
        # writing bytecode caches.
        subprocess.run([sys.executable, "-m", "compileall", "-q", src],
                       env=ctx.env, stdout=subprocess.DEVNULL, check=False)
        for workload in selected:
            ctx.workload = workload
            started = time.monotonic()
            ctx.deadline = started + KILL_S
            metrics, samples = WORKLOADS[workload](ctx, started)
            missing = set(units) - set(metrics)
            if missing:
                raise BenchError(f"{workload} did not measure "
                                 f"{', '.join(sorted(missing))}")
            _print_table(workload, samples, metrics, units)
            results[workload] = {"metrics": metrics, "samples": samples}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        ctx.close()

    for problem in ctx.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    correct = ctx.failed == 0
    if args.write_expected and correct:
        os.makedirs(EXPECTED_DIR, exist_ok=True)
        with open(expected_path, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "sizes": asdict(sizes),
                       "outputs": dict(sorted(ctx.reference.items()))},
                      handle, indent=1)
            handle.write("\n")
    if args.record:
        os.makedirs(RECORDS_DIR, exist_ok=True)
        with open(os.path.join(RECORDS_DIR, f"{args.record}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({
                "seed": args.seed, "seconds": seconds,
                "trace": args.trace, "sizes": asdict(sizes),
                "host": host_facts(), "correct": correct,
                "attempted": ctx.attempted, "failed": ctx.failed,
                "checked_against": ("bench/expected/" + os.path.basename(
                    expected_path)) if expected else "repetitions",
                "workloads": results,
            }, handle, indent=1, sort_keys=True)
            handle.write("\n")

    if args.workload == "all":
        block = {w: _metric_block(r["metrics"], units)
                 for w, r in results.items()}
    else:
        block = _metric_block(results[args.workload]["metrics"], units)
    print(json.dumps({"correct": correct, "attempted": ctx.attempted,
                      "failed": ctx.failed, "metrics": block}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
