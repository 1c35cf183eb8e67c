"""The repository benchmark: how long it takes to reproduce the artifacts.

Every simulated number the program reports (energy, time, delivery) is a
slot count that repeats bit for bit, so the cost worth measuring is host
time.  Each workload is one closed loop: one ``repro`` command, run to
completion in a fresh interpreter on an empty store.

* ``runall-serial``   ``campaign run-all`` in one process
* ``runall-fabric2``  the same command with ``--workers 2``
* ``table1-lockstep`` a Table 1 subset under ``campaign run --lockstep
  --resolution numpy``

Usage, from the repository root::

    python3 perfbench/run.py --workload runall-serial --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the same command once untraced and once under the layer tracer
(``tracer.py``) and reports the per-layer metrics.  The last line of
standard output is one JSON object; the exit code is non-zero when a
cell failed or its results differ from the reference.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import hostspeed
from tracer import merge_dumps

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
MATRIX = os.path.join(BENCH, "matrix")
WORK = os.path.join(BENCH, ".work")
DIGESTS = os.path.join(BENCH, "digests.json")
LAUNCH = os.path.join(BENCH, "launch.py")

RUN_ALL_CONFIGS = ("figure1.json", "table1.json", "ablations.json", "faults.json")
#: Seed ``s`` shifts every row's seed list by ``s * SEED_STRIDE``.
SEED_STRIDE = 1000
#: Execution options that may not change results; cell identities drop
#: them so runs under different options compare cell by cell.
EXEC_KEYS = ("lockstep", "resolution", "stepping")
#: The alternative execution path runall workloads are checked against.
CROSS_CHECK_OPTIONS = {"stepping": "slot", "resolution": "list"}

#: Hard ceiling on one invocation, so a wedged program cannot hang the run.
DEADLINE_S = 170.0

#: Per workload: the matrix files, the program's command-line flags, and
#: the execution options those flags set (for the set-up probe).
WORKLOADS = {
    "runall-serial": {
        "configs": RUN_ALL_CONFIGS, "seeds_per_entry": 1, "flags": [],
        "options": {},
    },
    "runall-fabric2": {
        "configs": RUN_ALL_CONFIGS, "seeds_per_entry": 1,
        "flags": ["--workers", "2"], "options": {},
    },
    "table1-lockstep": {
        "configs": ("table1_lockstep.json",), "seeds_per_entry": None,
        "flags": ["--lockstep", "--resolution", "numpy"],
        "options": {"lockstep": True, "resolution": "numpy"},
    },
}

#: End-to-end metrics (untraced runs) and their units.  Times are in
#: reference-host seconds (``hostspeed.py``).  ``resume_s`` is measured
#: and printed but carries no bound: on a shared two-core host its
#: run-to-run spread (10-27%) is too close to the largest bound allowed
#: (0.25).  The ``raw_`` times are the same medians unscaled;
#: ``host_factor`` is the median scale (reference seconds per measured
#: second).
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PRINTED_ONLY = {
    "resume_s": "s", "raw_wall_s": "s", "raw_setup_s": "s",
    "raw_resume_s": "s", "host_factor": "ratio",
}

#: Registry rows and SoA verdicts with a per-layer metric each.
ROWS = (
    "local", "nocd", "dtime", "bounded", "cd", "cd-optimal", "det-local",
    "det-cd", "path", "decay", "lb-path", "lb-reduction", "figure1",
    "abl-probe", "abl-noprobe", "abl-ps-thm11", "abl-ps-thm12", "abl-beta",
)
SOA_REASONS = (
    "ok", "resolution", "record_trace", "churn", "jammer", "burst_loss",
    "model_factory", "stateful_model", "model", "observers",
)


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout (exit code 2)."""


# --- inputs -----------------------------------------------------------------


def load_matrix(name: str) -> Dict:
    with open(os.path.join(MATRIX, name), encoding="utf-8") as handle:
        return json.load(handle)


def shifted(config: Dict, seed: int, extra_options: Optional[Dict] = None,
            sample: bool = False, seeds_per_entry: Optional[int] = None) -> Dict:
    """``config`` with every row's seeds shifted by ``seed * SEED_STRIDE``.

    ``seeds_per_entry`` keeps that many seeds of each row entry (all when
    None); ``sample`` keeps one cell per row entry (smallest size, first
    seed); ``extra_options`` are merged into every row's options."""
    rows = []
    for entry in config["rows"]:
        entry = dict(entry)
        entry["seeds"] = [s + seed * SEED_STRIDE
                          for s in entry["seeds"][:seeds_per_entry]]
        if sample:
            entry["sizes"] = [min(entry["sizes"])]
            entry["seeds"] = entry["seeds"][:1]
        if extra_options:
            entry["options"] = {**entry.get("options", {}), **extra_options}
        rows.append(entry)
    return {**config, "rows": rows}


def write_inputs(workload: str, seed: int, directory: str,
                 extra_options: Optional[Dict] = None,
                 sample: bool = False) -> str:
    """Write the workload's configs for ``seed``; return the command
    target (the run-all directory or the one campaign config)."""
    os.makedirs(directory, exist_ok=True)
    names = WORKLOADS[workload]["configs"]
    keep = WORKLOADS[workload]["seeds_per_entry"]
    for name in names:
        config = shifted(load_matrix(name), seed, extra_options, sample, keep)
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            json.dump(config, handle, indent=1)
    if len(names) == 1:
        return os.path.join(directory, names[0])
    manifest = load_matrix("run_all.json")
    with open(os.path.join(directory, "run_all.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)
    return directory


def expected_cells(workload: str, seed: int) -> List[str]:
    """Cell identities the workload must produce for ``seed``."""
    ids = set()
    keep = WORKLOADS[workload]["seeds_per_entry"]
    for name in WORKLOADS[workload]["configs"]:
        config = shifted(load_matrix(name), seed, seeds_per_entry=keep)
        for entry in config["rows"]:
            for size in entry["sizes"]:
                for s in entry["seeds"]:
                    ids.add(cell_id(config["name"], entry["row"], size, s,
                                    entry.get("options", {})))
    return sorted(ids)


def command(target: str, store: str, flags: List[str]) -> List[str]:
    """The program's command line.  Either way each campaign's store
    lands in ``<store>/<campaign name>/``."""
    if os.path.isdir(target):
        return ["campaign", "run-all", target, "--out-root", store] + flags
    with open(target, encoding="utf-8") as handle:
        name = json.load(handle)["name"]
    return ["campaign", "run", target, "--out", os.path.join(store, name)] + flags


# --- outputs ----------------------------------------------------------------


def cell_id(campaign: str, row: str, size: int, seed: int, options: Dict) -> str:
    kept = {k: v for k, v in sorted(options.items()) if k not in EXEC_KEYS}
    return f"{campaign}/{row}/n={size}/seed={seed}/{json.dumps(kept, sort_keys=True)}"


def cell_digest(result: Dict) -> str:
    """Digest of a cell's simulated results, without the SoA diagnostics
    (which engine ran it and why), as ``aggregate_cells`` leaves them out."""
    extras = {
        k: v for k, v in result.get("extras", {}).items()
        if k != "soa" and not k.startswith("soa_reason_")
    }
    payload = {
        key: result[key]
        for key in ("n", "max_degree", "diameter", "delivered", "duration",
                    "max_energy", "mean_energy")
    }
    payload["extras"] = extras
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def read_cells(store_root: str) -> Tuple[Dict[str, str], Dict[str, float]]:
    """(cell id -> digest for ok cells, SoA flag per lock-step cell id)
    from every campaign store under ``store_root``.  Later lines win,
    as in the program's own store."""
    digests: Dict[str, str] = {}
    soa: Dict[str, float] = {}
    for path in store_files(store_root):
        campaign = os.path.basename(os.path.dirname(path))
        latest = {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    record = json.loads(line)
                    latest[record["key"]] = record
        for record in latest.values():
            job = record["job"]
            ident = cell_id(campaign, job["row"], job["size"], job["seed"],
                            job.get("options") or {})
            if record["status"] != "ok":
                digests.pop(ident, None)
                continue
            digests[ident] = cell_digest(record["result"])
            flag = record["result"].get("extras", {}).get("soa")
            if flag is not None:
                soa[ident] = flag
    return digests, soa


def store_files(store_root: str) -> List[str]:
    if not os.path.isdir(store_root):
        return []
    return sorted(
        os.path.join(store_root, name, "results.jsonl")
        for name in os.listdir(store_root)
        if os.path.isfile(os.path.join(store_root, name, "results.jsonl"))
    )


def workload_digest(cells: Dict[str, str]) -> str:
    text = "\n".join(f"{ident} {cells[ident]}" for ident in sorted(cells))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def committed(matrix: str, seed: int) -> Optional[Dict[str, str]]:
    if not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle).get(matrix, {}).get(str(seed))


def digest_matrix(workload: str) -> str:
    """Workloads over the same cells share one committed digest table."""
    return "runall" if workload.startswith("runall") else workload


# --- processes --------------------------------------------------------------


def program_env() -> Dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=SRC + (os.pathsep + path if path else ""),
        PYTHONHASHSEED="0",
    )


def spawn(argv: List[str], log: str, deadline: float,
          failure_ok: bool = False) -> Tuple[float, float]:
    """Run ``python3 argv`` to completion from the repository root,
    through ``launch.py``; return (wall seconds, peak RSS MB of the
    process and every descendant it waited for).  The process is killed
    with its whole group when it outlives ``deadline``; raises on a
    non-zero exit unless ``failure_ok`` (the caller then counts the cells
    it left undone)."""
    budget = deadline - time.monotonic()
    if budget <= 0:
        raise BenchError("out of time before " + " ".join(argv[:3]))
    try:
        done = subprocess.run(
            [sys.executable, LAUNCH, log, f"{budget:.3f}", "--",
             sys.executable] + argv,
            cwd=ROOT, env=program_env(), capture_output=True, text=True,
            timeout=budget + 10.0,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(argv[:4])} outlived the deadline") from exc
    if done.returncode != 0:
        raise BenchError(f"launch.py exited {done.returncode}: {done.stderr.strip()}")
    report = json.loads(done.stdout.splitlines()[-1])
    if report["code"] != 0 and not failure_ok:
        raise BenchError(
            f"{' '.join(argv[:4])} exited {report['code']}; see {log}"
        )
    return report["wall_s"], report["peak_rss_mb"]


# --- measurement ------------------------------------------------------------


class Run:
    """One invocation's work directory, inputs and bookkeeping."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.dir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.log = os.path.join(self.dir, "program.log")
        self.target = write_inputs(workload, seed, os.path.join(self.dir, "inputs"))
        self.expected = expected_cells(workload, seed)
        self.deadline = time.monotonic() + DEADLINE_S
        self.failed: set = set()
        self.notes: List[str] = []

    def store(self, name: str) -> str:
        path = os.path.join(self.dir, name)
        shutil.rmtree(path, ignore_errors=True)
        return path

    def program(self, store: str, traced: Optional[str] = None) -> Tuple[float, float]:
        args = command(self.target, store, WORKLOADS[self.workload]["flags"])
        entry = ["-m", "repro"] if traced is None else [
            os.path.join(BENCH, "traced_main.py"), traced]
        return spawn(entry + args, self.log, self.deadline, failure_ok=True)

    def setup_s(self) -> float:
        """One set-up probe in a fresh interpreter."""
        probe = os.path.join(BENCH, "setup_probe.py")
        options = json.dumps(WORKLOADS[self.workload]["options"])
        out = os.path.join(self.dir, "setup.json")
        spawn([probe, options, self.target], out, self.deadline)
        with open(out, encoding="utf-8") as handle:
            lines = [line for line in handle if line.startswith("{")]
        report = json.loads(lines[-1])
        os.unlink(out)
        if report["cells"] != len(self.expected):
            raise BenchError(
                f"set-up planned {report['cells']} cells, "
                f"expected {len(self.expected)}"
            )
        return report["setup_s"]

    def check(self, store: str, label: str) -> Dict[str, str]:
        """Count missing or failed cells of one program run; refuse a
        lock-step run on which the SoA engine never engaged."""
        cells, soa = read_cells(store)
        if self.workload == "table1-lockstep" and not any(soa.values()):
            raise BenchError(
                "table1-lockstep: the trial-SoA engine engaged on no cell "
                "(sim.soa_engaged_frac is 0); this run measures a different "
                "program"
            )
        missing = [ident for ident in self.expected if ident not in cells]
        if missing:
            self.notes.append(f"{label}: {len(missing)} cell(s) failed or missing")
            self.failed.update(missing)
        return cells

    def compare(self, cells: Dict[str, str], reference: Dict[str, str],
                label: str) -> None:
        """Count cells whose results differ from ``reference``."""
        bad = [
            ident for ident, digest in reference.items()
            if ident in cells and cells[ident] != digest
        ]
        unknown = [ident for ident in reference if ident not in self.expected]
        if bad:
            self.notes.append(f"{label}: {len(bad)} cell(s) differ")
            self.failed.update(bad)
        if unknown:
            self.notes.append(f"{label}: {len(unknown)} reference cell(s) not in the workload")
            self.failed.update(unknown)

    def verify(self, cells: Dict[str, str]) -> None:
        """Compare the run's cells with the committed digests of this
        seed (recorded on the serial path), or, for a seed without them,
        with a reference run of the same cells on another execution
        path: the serial engine for the lock-step workload (every cell),
        per-slot stepping with the list backend for run-all (one cell
        per row entry)."""
        known = committed(digest_matrix(self.workload), self.seed)
        if known is not None:
            self.compare(cells, known, "committed digests")
            self.notes.append(f"checked {len(known)} cell(s) against committed digests")
            return
        lockstep = self.workload == "table1-lockstep"
        target = write_inputs(
            self.workload, self.seed, os.path.join(self.dir, "reference-inputs"),
            extra_options=None if lockstep else CROSS_CHECK_OPTIONS,
            sample=not lockstep,
        )
        store = self.store("reference-store")
        spawn(["-m", "repro"] + command(target, store, []), self.log, self.deadline)
        reference, _ = read_cells(store)
        if not reference:
            raise BenchError("the reference run produced no cells")
        self.compare(cells, reference, "reference run")
        self.notes.append(f"checked {len(reference)} cell(s) against a reference run")

    def finish(self) -> None:
        if not self.failed:
            shutil.rmtree(self.dir, ignore_errors=True)
        else:
            self.notes.append(f"kept {self.dir} for inspection")


class HostClock:
    """Scales measured seconds to reference-host seconds: every interval
    is bracketed by the calibration before it and the one after it
    (``hostspeed.py``)."""

    def __init__(self) -> None:
        hostspeed.calibrate()  # warm the kernels up; discarded
        self.last = hostspeed.calibrate()
        self.factors: List[float] = []

    def scale(self, seconds: float) -> float:
        after = hostspeed.calibrate()
        self.factors.append(hostspeed.factor(self.last, after))
        self.last = after
        return seconds * self.factors[-1]


def measure(run: Run, seconds: float) -> Dict[str, float]:
    """The untraced end-to-end metrics.  Each round is a set-up probe and
    a cold run; another round starts only if one as long as the last
    still ends within ``seconds`` (there is always one).  Then the last
    store is resumed.  Times are medians in reference-host seconds; the
    raw medians are printed beside them."""
    clock = HostClock()
    raw: Dict[str, List[float]] = {"wall_s": [], "setup_s": [], "resume_s": []}
    scaled: Dict[str, List[float]] = {name: [] for name in raw}

    def sample(name: str, seconds_taken: float) -> None:
        raw[name].append(seconds_taken)
        scaled[name].append(clock.scale(seconds_taken))

    peaks, digests = [], set()
    begin = time.monotonic()
    while True:
        round_start = time.monotonic()
        sample("setup_s", run.setup_s())
        store = run.store("store")
        wall, peak = run.program(store)
        sample("wall_s", wall)
        peaks.append(peak)
        cells = run.check(store, f"cold run {len(peaks)}")
        digests.add(workload_digest(cells))
        now = time.monotonic()
        if now - begin + (now - round_start) > seconds:
            break
    if len(digests) != 1:
        run.notes.append("cold runs disagree with each other")
        run.failed.update(run.expected)
    sample("resume_s", run.program(store)[0])
    if run.check(store, "resumed store") != cells:
        run.notes.append("resume changed the store")
        run.failed.update(run.expected)
    run.verify(cells)
    run.notes.append(f"{len(peaks)} cold run(s) and set-ups, one resume")
    for name in raw:
        run.notes.append(
            f"{name} samples (raw, scaled): "
            + " ".join(f"{r:.4f},{c:.4f}" for r, c in zip(raw[name], scaled[name]))
        )
    metrics = {name: statistics.median(values) for name, values in scaled.items()}
    metrics["peak_rss_mb"] = statistics.median(peaks)
    metrics.update({f"raw_{name}": statistics.median(values)
                    for name, values in raw.items()})
    metrics["host_factor"] = statistics.median(clock.factors)
    return metrics


# --- traced run -------------------------------------------------------------


def measure_traced(run: Run) -> Dict[str, float]:
    """One untraced and one traced cold run plus resume each; the
    per-layer metrics come from the traced pair.  The two pairs' times
    are scaled to reference-host seconds before they are compared."""
    clock = HostClock()
    store = run.store("store")
    base = clock.scale(run.program(store)[0] + run.program(store)[0])
    untraced = run.check(store, "untraced run")
    store = run.store("traced-store")
    trace_dir = run.store("trace")
    traced = clock.scale(run.program(store, trace_dir)[0]
                         + run.program(store, trace_dir)[0])
    cells = run.check(store, "traced run")
    run.compare(cells, untraced, "traced vs untraced")
    run.verify(cells)
    metrics = layer_metrics(merge_dumps(trace_dir), fabric_metrics(store))
    metrics["trace.overhead_frac"] = traced / base - 1.0
    return metrics


def layer_metrics(merged: Dict, fabric: Dict[str, float]) -> Dict[str, float]:
    spans, counters = merged["spans"], merged["counters"]

    def total(name: str) -> float:
        return spans.get(name, {}).get("total", 0.0)

    def self_time(name: str) -> float:
        return spans.get(name, {}).get("self", 0.0)

    def calls(name: str) -> float:
        return float(spans.get(name, {}).get("calls", 0))

    soa_trials = counters.get("sim.soa_trials", 0.0)
    diameter_calls = calls("graphs.diameter")
    serial_entries = counters.get("sim.serial_gen_entries", 0.0)
    metrics = {
        "campaign.spec_s": total("campaign.spec"),
        "campaign.block_s": total("campaign.block"),
        "campaign.blocks": calls("campaign.block"),
    }
    for row in ROWS:
        metrics[f"row.{row}.block_s"] = counters.get(f"row.{row}.block_s", 0.0)
    metrics.update({
        "campaign.store_write_s": total("campaign.store_write"),
        "campaign.store_records": counters.get("campaign.store_records", 0.0),
        "campaign.store_read_s": total("campaign.store_read"),
        "campaign.aggregate_s": total("campaign.aggregate"),
        "graphs.build_s": total("graphs.build"),
        "graphs.diameter_s": total("graphs.diameter"),
        "graphs.diameter_calls": diameter_calls,
        "graphs.diameter_repeat_frac": (
            counters.get("graphs.diameter_repeats", 0.0) / diameter_calls
            if diameter_calls else 0.0
        ),
        "sim.run_s": total("sim.run"),
        "sim.runs": calls("sim.run"),
        "sim.lockstep_s": total("sim.lockstep"),
        "sim.lockstep_self_s": self_time("sim.lockstep"),
        "sim.soa_s": total("sim.soa"),
        "sim.soa_self_s": self_time("sim.soa"),
        "sim.soa_engaged_frac": (
            counters.get("sim.soa_reason.ok", 0.0) / soa_trials
            if soa_trials else 0.0
        ),
    })
    for reason in SOA_REASONS:
        metrics[f"sim.soa_reason.{reason}"] = counters.get(f"sim.soa_reason.{reason}", 0.0)
    metrics.update({
        "sim.resolution_s": total("sim.resolution"),
        "sim.resolve_calls": counters.get("sim.resolve_calls", 0.0),
        "sim.observers_s": total("sim.observers"),
        "sim.faults_s": total("sim.faults"),
        "sim.stepping_self_s": self_time("sim.run"),
        "sim.gen_entries": counters.get("sim.gen_entries", 0.0),
        "sim.sim_slots": counters.get("sim.sim_slots", 0.0),
        "sim.host_us_per_gen_entry": (
            total("sim.run") * 1e6 / serial_entries if serial_entries else 0.0
        ),
        "fabric.merge_s": total("fabric.merge"),
    })
    metrics.update(fabric)
    return metrics


def fabric_metrics(store_root: str) -> Dict[str, float]:
    """Fabric dispatch metrics from each campaign's events ledger."""
    blocks = retries = 0
    busy = capacity = tail = 0.0
    for results in store_files(store_root):
        path = os.path.join(os.path.dirname(results), "events.jsonl")
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as handle:
            events = [json.loads(line) for line in handle if line.strip()]
        # Only the cold run's events: the resume appends a second run.
        starts = [i for i, e in enumerate(events) if e["ev"] == "run_started"]
        events = events[starts[0]:starts[1] if len(starts) > 1 else None]
        started = events[0]
        completed = [e for e in events if e["ev"] == "run_completed"][-1]
        done = [e for e in events if e["ev"] == "block_completed"]
        dispatched = [e for e in events if e["ev"] == "block_dispatched"]
        blocks += len(done)
        retries += sum(1 for e in events if e["ev"] == "block_retried")
        busy += sum(e["elapsed"] for e in done)
        workers = min(started["workers"], max(len(dispatched), 1))
        capacity += workers * completed["elapsed"]
        if dispatched:
            last = dispatched[-1]["ts"]
            first_idle = min((e["ts"] for e in done if e["ts"] >= last),
                             default=completed["ts"])
            tail += completed["ts"] - first_idle
    return {
        "fabric.blocks": float(blocks),
        "fabric.retries": float(retries),
        "fabric.worker_busy_frac": busy / capacity if capacity else 0.0,
        "fabric.tail_idle_s": tail,
    }


# --- entry point ------------------------------------------------------------


def environment() -> Dict[str, object]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    source = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    source.update(name.encode() + handle.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
    }


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> Tuple[int, int, Dict[str, float]]:
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    if workload == "table1-lockstep" and env["numpy"] is None:
        raise BenchError(
            "table1-lockstep needs numpy: without it --resolution numpy "
            "falls back to bitmask and the run measures a different program"
        )
    run = Run(workload, seed)
    metrics = measure_traced(run) if trace else measure(run, seconds)
    run.finish()
    for note in run.notes:
        print(f"{workload}: {note}", flush=True)
    for name, value in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit(name)}", flush=True)
    failed_frac = len(run.failed) / len(run.expected)
    print(f"{workload} failed_frac {failed_frac:.6g} frac", flush=True)
    return len(run.expected), len(run.failed), metrics


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in PRINTED_ONLY:
        return PRINTED_ONLY[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_us_per_gen_entry"):
        return "us"
    return "count"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="non-negative; shifts every row's seeds by 1000 * seed")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: Dict[str, Dict] = {}
    try:
        for name in names:
            cells, bad, values = run_workload(name, args.seed, args.seconds,
                                              bool(args.trace))
            attempted += cells
            failed += bad
            for metric, value in values.items():
                if metric in PRINTED_ONLY:
                    continue
                key = metric if len(names) == 1 else f"{name}.{metric}"
                metrics[key] = {"value": value, "unit": unit(metric)}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
