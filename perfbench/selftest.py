"""Self-tests of the benchmark's own machinery.

Usage, from the repository root::

    python3 perfbench/selftest.py

Checks that

* a traced run gives the same cell digests as an untraced one, in
  process and through forked fabric workers;
* uninstalling the tracer restores every patched attribute and leaves
  no timing shim behind anywhere in ``repro``;
* no span's self time is negative;
* the default seed's matrix is exactly the cell set of ``configs/``;
* the host clock restores what it changes and scales as documented;
* ``launch.py`` reports exit codes and the program's own peak memory.

Exits non-zero on the first failure.  The file name keeps it out of the
repository's own pytest collection; it does run under pytest if named.
"""

import json
import os
import shutil
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import run as bench  # noqa: E402
import tracer  # noqa: E402

#: (row, size, seeds, options): one block per layer the tracer wraps —
#: the serial engine, each fault family, trace rows, the contention
#: observer, a bespoke cell, and the lock-step/SoA path.
CELLS = (
    ("local", 8, (0, 1), {}),
    ("decay", 16, (0, 1), {"churn": "periodic:period=16,down=4,stagger=1"}),
    ("decay", 16, (0,), {"jam": "random:rate=0.15"}),
    ("decay", 16, (0,), {"burst_loss": "p_gb=0.05,p_bg=0.25,bad=0.9"}),
    ("lb-path", 64, (0,), {}),
    ("nocd", 8, (0,), {"contention_hist": True}),
    ("abl-beta", 40, (0,), {"beta": 0.3}),
    ("path", 64, (0, 1), {"lockstep": True, "resolution": "numpy"}),
)


def _execute():
    from repro.campaign import registry

    digests = []
    for row, size, seeds, options in CELLS:
        for cell in registry.execute_cell_block(row, size, seeds, dict(options)):
            digests.append((row, size, cell.seed, bench.cell_digest(cell.to_dict())))
    return digests


def _attributes():
    """Every module attribute and class member of the loaded program."""
    from repro.campaign import registry

    seen = {("GRAPH_FAMILIES", key): value
            for key, value in registry.GRAPH_FAMILIES.items()}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            seen[(name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for attr, member in list(vars(value).items()):
                    seen[(name, key, attr)] = member
    return seen


def _is_shim(value) -> bool:
    target = getattr(value, "__func__", value)
    return getattr(target, "__module__", None) == tracer.__name__


def test_traced_matches_untraced_and_restores():
    tracer._import_program()
    before = _attributes()
    plain = _execute()
    os.makedirs(bench.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.WORK) as trace_dir:
        tracer.install(trace_dir)
        try:
            traced = _execute()
            snapshot = tracer.TRACER.snapshot()
        finally:
            restored = tracer.uninstall()
    assert traced == plain, "tracing changed a cell's results"
    assert restored > 0 and not tracer._PATCHES
    after = _attributes()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert not changed, f"attributes not restored: {changed[:5]}"
    shims = [key for key, value in after.items() if _is_shim(value)]
    assert not shims, f"timing shims left behind: {shims[:5]}"
    spans = snapshot["spans"]
    for layer in ("campaign.block", "graphs.build", "graphs.diameter",
                  "sim.run", "sim.resolution", "sim.observers", "sim.faults",
                  "sim.lockstep"):
        assert spans.get(layer, {}).get("calls"), f"no {layer} span recorded"
    negative = {name: s["self"] for name, s in spans.items() if s["self"] < 0}
    assert not negative, f"negative self time: {negative}"
    for name, stat in spans.items():
        assert stat["self"] <= stat["total"], name


def test_fabric_workers_traced():
    """Forked workers inherit the shims and dump their own spans; the
    traced fabric run's cells equal the untraced run's."""
    os.makedirs(bench.WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=bench.WORK, prefix="selftest-")
    try:
        config = os.path.join(work, "smoke.json")
        with open(config, "w", encoding="utf-8") as handle:
            json.dump({"name": "smoke", "rows": [
                {"row": "local", "sizes": [8, 16], "seeds": [0, 1]},
                {"row": "decay", "sizes": [16], "seeds": [0, 1],
                 "options": {"jam": "random:rate=0.15"}},
            ]}, handle)
        deadline = time.monotonic() + 120
        log = os.path.join(work, "log")
        cells = []
        for label, entry in (("plain", ["-m", "repro"]),
                             ("traced", [os.path.join(BENCH, "traced_main.py"),
                                         os.path.join(work, "trace")])):
            store = os.path.join(work, label)
            bench.spawn(entry + bench.command(config, store, ["--workers", "2"]),
                        log, deadline)
            cells.append(bench.read_cells(store)[0])
        assert cells[0] and cells[0] == cells[1], "fabric tracing changed results"
        merged = tracer.merge_dumps(os.path.join(work, "trace"))
        assert merged["processes"] >= 3, merged["processes"]  # parent + 2 workers
        assert merged["spans"]["campaign.block"]["calls"] == 3
        assert all(s["self"] >= 0 for s in merged["spans"].values())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_default_seed_is_configs():
    """Seed 0 of the frozen matrices is exactly the cell set of
    ``configs/``, and the run-all workloads keep the first seed of every
    row entry of it."""
    from repro.campaign import CampaignSpec
    from repro.campaign.fabric import resolve_run_all

    _, paths = resolve_run_all(os.path.join(os.path.dirname(BENCH), "configs"))
    ids, firsts = set(), set()
    for path in paths:
        spec = CampaignSpec.from_json_file(path)
        for job in spec.jobs():
            ids.add(bench.cell_id(spec.name, job.row, job.size, job.seed,
                                  job.options_dict))
        for block in spec.job_blocks():
            firsts.add(bench.cell_id(spec.name, block.row, block.size,
                                     block.seeds[0], block.options_dict))
    frozen = set()
    for name in bench.RUN_ALL_CONFIGS:
        config = bench.shifted(bench.load_matrix(name), 0)
        for entry in config["rows"]:
            for size in entry["sizes"]:
                for seed in entry["seeds"]:
                    frozen.add(bench.cell_id(config["name"], entry["row"], size,
                                             seed, entry.get("options", {})))
    assert frozen == ids
    assert sorted(firsts) == bench.expected_cells("runall-serial", 0)


def test_host_clock():
    """Calibration restores the CPU set and the garbage collector; a
    host running at reference speed scales by 1; the factor falls when
    the kernels run slower."""
    import gc
    import hostspeed

    cpus = os.sched_getaffinity(0)
    sample = hostspeed.calibrate()
    assert os.sched_getaffinity(0) == cpus and gc.isenabled()
    assert set(sample) == set(hostspeed.REFERENCE)
    assert all(value > 0 for value in sample.values())
    ref = hostspeed.REFERENCE
    assert abs(hostspeed.factor(ref, ref) - 1.0) < 1e-12
    slow = {name: 2 * value for name, value in ref.items()}
    assert abs(hostspeed.factor(ref, slow) - 1 / 1.5) < 1e-12


def test_launch_reports_exit_and_memory():
    """``launch.py`` reports the program's exit code and a peak RSS of
    the program, not of the (larger) process that started it."""
    os.makedirs(bench.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.WORK) as work:
        log = os.path.join(work, "log")
        ballast = bytearray(150 * 1024 * 1024)  # noqa: F841 - grows this process
        deadline = time.monotonic() + 60
        wall, peak = bench.spawn(["-c", "pass"], log, deadline)
        assert 0 < wall < 60 and 0 < peak < 100, (wall, peak)
        del ballast
        try:
            bench.spawn(["-c", "raise SystemExit(3)"], log, deadline)
        except bench.BenchError as exc:
            assert "exited 3" in str(exc)
        else:
            raise AssertionError("a failing program was not reported")
        bench.spawn(["-c", "raise SystemExit(3)"], log, deadline, failure_ok=True)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == bench.END_TO_END
    layers = bench.layer_metrics({"spans": {}, "counters": {}},
                                 bench.fabric_metrics(os.path.join(BENCH, "no-store")))
    layers["trace.overhead_frac"] = 0.0
    emitted = {name: bench.unit(name) for name in layers}
    assert emitted == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS)


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        start = time.perf_counter()
        fn()
        print(f"ok {name} ({time.perf_counter() - start:.1f}s)", flush=True)
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
