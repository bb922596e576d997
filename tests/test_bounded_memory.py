"""Bounding per-process memory must never change a result.

The harness keeps compiled kernels, commit logs and trace sets in one
byte-budgeted LRU (``repro.experiments.common._worker_cache``). A record
keeps keyframe memory as sparse page deltas over one initial image
(``ReplayRecord.materialize_cpu``), and each paper trace is synthesized
the first time its index is needed. Evicting an entry only costs a
rebuild, so every check here compares against a run that never evicts,
or against the full-image snapshot path the deltas replaced. The
cache's per-entry estimates are checked against tracemalloc, and every
interpreter CPU must be freed as soon as its owner is done with it,
without waiting for the cyclic garbage collector.
"""

import gc
import random
import sys
import tracemalloc
import weakref
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.anytime import AnytimeKernel
from repro.errors import SampleTimeout
from repro.experiments import common
from repro.experiments.common import (
    ExperimentSetup,
    _Compiled,
    _run_config_group,
    _run_sample,
    _sample_specs,
    _sample_trace,
    _worker_cache,
    build_anytime,
    calibrate_environment,
    measure_precise_cycles,
    run_benchmark_suite,
    worker_workload,
)
from repro.power.capacitor import Capacitor
from repro.power.energy import EnergyModel
from repro.power.harvester import paper_traces
from repro.power.supply import PowerSupply, SupplyExhausted
from repro.power.trace import PowerTrace
from repro.runtime.table import RUNTIME_NAMES
from repro.service import jobs
from repro.service.protocol import JobSpec
from repro.sim.cpu import CPU
from repro.sim.decode import decode_program
from repro.sim.reference import ReferenceCPU
from repro.sim.replay import (
    _FLAGS,
    SNAPSHOT_PAGE,
    _attach_thread_buffers,
    _StagedCPU,
    record_run,
    record_run_python,
)
from repro.workloads import make_workload
from tests.test_native_record import _program_kernel


@pytest.fixture(autouse=True)
def _fresh_cache():
    _worker_cache.clear()
    yield
    _worker_cache.clear()


def _serial_replay(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)


# -- sparse keyframe snapshots ----------------------------------------------


def _state(cpu):
    ram = [bytes(r.data) for r in cpu.memory.regions if r.device is None]
    return cpu.pc, cpu.halted, list(cpu.regs.regs), cpu.flags.snapshot(), ram


def _keyframes(record):
    """``(position, registers, flags, pc)`` of every keyframe."""
    return [
        (pos, list(record.kf_regs[16 * i:16 * i + 16]),
         _FLAGS[record.kf_flags[i]], record.kf_pc[i])
        for i, pos in enumerate(record.kf_pos)
    ]


def _full_image_cpu(record, kernel, inputs, reg_pos, mem_pos):
    """The full-snapshot materialization the sparse deltas replaced:
    a keyframe's memory is the whole initial image with the store log
    up to the keyframe applied."""
    cpu = kernel.make_cpu(inputs)
    keyframes = _keyframes(record)
    positions = [kf[0] for kf in keyframes]
    kf_pos, regs, flags, pc = keyframes[bisect_right(positions, reg_pos) - 1]
    record.apply_stores(cpu.memory, 0, kf_pos)
    cpu.regs.restore(list(regs))
    cpu.flags.restore(flags)
    cpu.pc = pc
    cpu.halted = False
    for _ in range(reg_pos - kf_pos):
        cpu.step()
    record.apply_stores(cpu.memory, reg_pos, mem_pos)
    return cpu


def _check_every_keyframe(record, kernel, inputs):
    """Sparse materialization at each keyframe equals the initial image
    advanced through the store log, keyframe by keyframe."""
    reference = kernel.make_cpu(inputs)
    ref_ram = [r.data for r in reference.memory.regions if r.device is None]
    done = 0
    for kf_pos, regs, flags, pc in _keyframes(record):
        record.apply_stores(reference.memory, done, kf_pos)
        done = kf_pos
        cpu = record.materialize_cpu(kernel, inputs, kf_pos, kf_pos)
        ram = [r.data for r in cpu.memory.regions if r.device is None]
        assert ram == ref_ram, f"memory differs at keyframe {kf_pos}"
        assert (cpu.pc, list(cpu.regs.regs), cpu.flags.snapshot()) == (
            pc, list(regs), flags
        )


def _check_random_pairs(record, kernel, inputs, seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        reg_pos = rng.randrange(record.length + 1)
        mem_pos = rng.randrange(reg_pos, record.length + 1)
        sparse = _state(record.materialize_cpu(kernel, inputs, reg_pos, mem_pos))
        full = _state(_full_image_cpu(record, kernel, inputs, reg_pos, mem_pos))
        assert sparse == full, (reg_pos, mem_pos)


class TestSparseKeyframes:
    @pytest.mark.parametrize("name,mode,bits", [
        ("MatMul", "swp", 4), ("Home", "swv", 4), ("CNN", "swp", 1),
    ])
    def test_sparse_equals_full_image(self, name, mode, bits):
        workload = make_workload(name, "tiny")
        kernel = build_anytime(workload, mode, bits)
        record = record_run(kernel, workload.inputs)
        assert record.replayable
        # Random pairs first, on a cold record: deltas then build from
        # scratch and from whichever earlier snapshot exists.
        _check_random_pairs(record, kernel, workload.inputs, seed=bits, count=12)
        _check_every_keyframe(record, kernel, workload.inputs)
        # Every delta cached now: the same pairs restore them.
        _check_random_pairs(record, kernel, workload.inputs, seed=bits, count=12)
        largest = max(len(delta) for delta in record._kf_deltas.values())
        assert largest < sum(r.size for r in kernel.make_cpu(workload.inputs).memory.regions)

    def test_store_straddling_a_page_writes_both_pages(self):
        address = 3 * SNAPSHOT_PAGE - 2
        kernel = _program_kernel(f"""
            MOV R1, #{address}
            MOV R2, #0x11223344
            STR R2, [R1, #0]
            MOV R3, #0x5A
            STRB R3, [R1, #1]
            MOV R4, #0x7788
            STRH R4, [R1, #2]
            HALT
        """)
        record = record_run(kernel, {}, keyframe_interval=1)
        assert record.replayable
        _check_every_keyframe(record, kernel, {})
        assert [offset for _region, offset, _length in record._pages] == [
            2 * SNAPSHOT_PAGE, 3 * SNAPSHOT_PAGE,
        ]
        last = record.materialize_cpu(kernel, {}, record.length, record.length)
        assert last.memory.read_bytes(address, 4) == bytes([0x44, 0x5A, 0x88, 0x77])
        _check_random_pairs(record, kernel, {}, seed=3, count=20)


# -- lazily built traces -----------------------------------------------------


class TestLazyTraces:
    def test_one_index_builds_only_that_trace(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        setup = ExperimentSetup(scale="tiny", trace_count=4, trace_duration_ms=600,
                                trace_seed=77)
        workload = make_workload("Var", "tiny")
        environment = calibrate_environment(measure_precise_cycles(workload), setup)
        specs = _sample_specs(workload, "precise", None, "clank", setup,
                              environment, None)
        want = paper_traces(count=4, duration_ms=600, base_seed=77)
        third = [spec for spec in specs if spec.trace_index == 2][0]
        assert _sample_trace(third).samples == want[2].samples
        built = _worker_cache.get(common._trace_key(third))
        assert [trace is not None for trace in built] == [False, False, True, False]
        for spec in specs:
            assert _sample_trace(spec).samples == want[spec.trace_index].samples


# -- the byte-budgeted cache -------------------------------------------------


def _matmul_grid(runtime, setup):
    workload = make_workload("MatMul", "tiny")
    environment = calibrate_environment(measure_precise_cycles(workload), setup)
    configs = [("precise", None), ("swp", 8), ("swp", 4)]
    return run_benchmark_suite(workload, configs, runtime, setup, environment)


class TestWorkerCache:
    @pytest.mark.parametrize("runtime", ["clank", "nvp", "hibernus", "progress"])
    def test_zero_budget_grid_equals_default(self, monkeypatch, runtime):
        """Every entry evicted as soon as it is added: every group
        re-compiles, re-records and re-synthesizes, and nothing moves."""
        _serial_replay(monkeypatch)
        setup = ExperimentSetup(scale="tiny", trace_count=3, invocations=2)
        evictions = _worker_cache.stats()["evictions"]
        default = _matmul_grid(runtime, setup)
        assert _worker_cache.stats()["evictions"] == evictions
        monkeypatch.setattr(common, "CACHE_BUDGET_BYTES", 0)
        _worker_cache.clear()
        starved = _matmul_grid(runtime, setup)
        stats = _worker_cache.stats()
        assert stats["bytes"] == 0 and stats["evictions"] > evictions
        for want, got in zip(default, starved):
            assert got.runs == want.runs
            assert [r.metrics for r in got.runs] == [r.metrics for r in want.runs]
            assert [r.ledger for r in got.runs] == [r.ledger for r in want.runs]

    def test_threads_with_tiny_budget_match_serial(self, monkeypatch):
        """Two pool threads on overlapping kernel and trace keys, with a
        budget smaller than one materialized record, so entries are
        evicted under each other's feet."""
        _serial_replay(monkeypatch)
        setup = ExperimentSetup(scale="tiny", trace_count=3, invocations=1)
        workload = make_workload("MatMul", "tiny")
        environment = calibrate_environment(measure_precise_cycles(workload), setup)
        groups = [
            _sample_specs(workload, mode, bits, runtime, setup, environment, None)
            for mode, bits in (("swp", 8), ("swp", 4), ("precise", None))
            for runtime in ("clank", "progress")
        ]
        serial = [_run_config_group(group) for group in groups]
        # A materialized MatMul tiny skim record takes 190-400 KB.
        monkeypatch.setattr(common, "CACHE_BUDGET_BYTES", 128 << 10)
        _worker_cache.clear()
        evictions = _worker_cache.stats()["evictions"]

        def run_all(order):
            return {index: _run_config_group(groups[index]) for index in order}

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _trial in range(3):
                order = list(range(len(groups)))
                with ThreadPoolExecutor(max_workers=2) as pool:
                    futures = [pool.submit(run_all, order),
                               pool.submit(run_all, order[::-1])]
                    for future in futures:
                        for index, runs in future.result(timeout=300).items():
                            assert runs == serial[index], index
                stats = _worker_cache.stats()
                assert stats["bytes"] <= stats["budget"]
        finally:
            sys.setswitchinterval(switch)
        assert _worker_cache.stats()["evictions"] > evictions

    def test_soak_distinct_trace_seeds_stays_bounded(self, monkeypatch):
        """40 service jobs, each with a new trace seed, in one process:
        the accounted bytes never pass the budget and the trace sets
        stop growing once the budget is full."""
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        budget = 2 << 20
        monkeypatch.setattr(common, "CACHE_BUDGET_BYTES", budget)
        counts = []
        set_bytes = None
        evictions = _worker_cache.stats()["evictions"]
        for index in range(40):
            spec = JobSpec(
                workload="MatMul", mode="swp", bits=8,
                runtime=("clank", "progress")[index % 2], scale="tiny",
                trace_count=3, invocations=1, trace_seed=5000 + index,
            )
            jobs.compute(jobs.prepare(spec), progress=lambda *_args: None)
            stats = _worker_cache.stats()
            assert stats["bytes"] <= stats["budget"] == budget
            keys = [key for key in _worker_cache.keys() if key[0] == "traces"]
            counts.append(len(keys))
            if set_bytes is None:
                set_bytes = _worker_cache.get(keys[0]).nbytes()
        assert stats["evictions"] > evictions
        assert max(counts) <= budget // set_bytes
        assert counts[-1] < 40


class _Sized:
    """A cache value of a settable size."""

    def __init__(self, size):
        self.size = size

    def nbytes(self):
        return self.size


class TestOversizeEntries:
    def test_oversize_entry_leaves_every_other_entry_resident(self, monkeypatch):
        monkeypatch.setattr(common, "CACHE_BUDGET_BYTES", 1000)
        small = [_Sized(300), _Sized(300)]
        for index, value in enumerate(small):
            _worker_cache.add(("small", index), value)
        evictions = _worker_cache.stats()["evictions"]
        big = _Sized(1001)
        assert _worker_cache.add(("big",), big) is big
        assert _worker_cache.keys() == [("small", 0), ("small", 1)]
        stats = _worker_cache.stats()
        assert (stats["bytes"], stats["evictions"]) == (600, evictions + 1)
        # An entry that fits still evicts the least recently used.
        _worker_cache.add(("mid",), _Sized(500))
        assert _worker_cache.keys() == [("small", 1), ("mid",)]
        # An entry that outgrows the budget is dropped alone.
        small[1].size = 1500
        _worker_cache.reaccount(("small", 1))
        assert _worker_cache.keys() == [("mid",)]
        assert _worker_cache.stats()["bytes"] == 500

    def test_grid_cli_population_fits_the_budget(self, monkeypatch):
        """One pass of the benchmark's grid-cli population (MatMul, MLP,
        Home and Conv2d x every runtime x precise, 8-bit and 4-bit, on a
        3 x 1 grid at default scale) evicts nothing and leaves the
        budget a third free."""
        _serial_replay(monkeypatch)
        setup = ExperimentSetup(trace_count=3, invocations=1)
        evictions = _worker_cache.stats()["evictions"]
        for name in ("MatMul", "MLP", "Home", "Conv2d"):
            workload = worker_workload(name, "default")
            environment = calibrate_environment(
                measure_precise_cycles(workload), setup
            )
            technique = workload.technique
            configs = [("precise", None), (technique, 8), (technique, 4)]
            for runtime in RUNTIME_NAMES:
                run_benchmark_suite(workload, configs, runtime, setup, environment)
        stats = _worker_cache.stats()
        assert stats["evictions"] == evictions
        assert stats["bytes"] * 1.5 <= stats["budget"]


# -- the cache's accounting against tracemalloc ------------------------------


def _traced_growth(work):
    """Bytes that ``work()`` leaves allocated, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        work()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestAccounting:
    """Each per-entry estimate is within 25% of what one default-scale
    build retains."""

    def test_kernel_bytes(self):
        workload = worker_workload("MLP", "default")
        built = []

        def build():
            kernel = build_anytime(workload, "swp", 4)
            decode_program(kernel.compiled.program)
            built.append(kernel)

        traced = _traced_growth(build)
        assert _Compiled(built[0]).nbytes() == pytest.approx(traced, rel=0.25)

    def test_materialization_bytes(self):
        workload = worker_workload("MLP", "default")
        kernel = build_anytime(workload, "swp", 4)
        record = record_run(kernel, workload.inputs)
        # This thread's region buffers exist before the measurement.
        with kernel.make_cpu(workload.inputs) as cpu:
            _attach_thread_buffers(cpu.memory.regions)
        del cpu
        before = record.nbytes()
        middle = record.length // 2
        traced = _traced_growth(
            lambda: record.materialize_cpu(kernel, workload.inputs, middle, middle)
        )
        assert record.nbytes() - before == pytest.approx(traced, rel=0.25)

    def test_context_bytes(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)

        def spec(seed):
            return JobSpec(workload="MatMul", mode="swp", bits=8, runtime="clank",
                           scale="default", trace_seed=seed)

        jobs.prepare(spec(1))  # the workload and its precise record
        count = 100
        traced = _traced_growth(
            lambda: [jobs.prepare(spec(2 + index)) for index in range(count)]
        )
        per_context = jobs.prepare(spec(2)).nbytes()
        assert per_context == pytest.approx(traced / count, rel=0.25)


# -- interpreter CPUs are freed when their run ends --------------------------


class _WeakCPU(CPU):
    """The fast CPU, weakly referenceable (CPU's slots leave that out)."""

    __slots__ = ("__weakref__",)


@pytest.fixture
def built_cpus(monkeypatch):
    """Weak references to the CPUs ``AnytimeKernel.make_cpu`` builds,
    with the cyclic garbage collector off: a CPU is dead only if its
    owner released it."""
    made = []
    make_cpu = AnytimeKernel.make_cpu

    def spy(self, inputs, cpu_cls=CPU):
        cpu = make_cpu(self, inputs, cpu_cls=_WeakCPU if cpu_cls is CPU else cpu_cls)
        made.append(weakref.ref(cpu))
        return cpu

    monkeypatch.setattr(AnytimeKernel, "make_cpu", spy)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    gc.collect()
    gc.disable()
    try:
        yield made
    finally:
        gc.enable()


def _tiny_spec(runtime, mode="swp", bits=4):
    setup = ExperimentSetup(scale="tiny", trace_count=2, invocations=1)
    workload = worker_workload("MatMul", "tiny")
    environment = calibrate_environment(measure_precise_cycles(workload), setup)
    return _sample_specs(workload, mode, bits, runtime, setup, environment, None)[0]


def _alive(made):
    return [ref() is not None for ref in made]


class TestCpuRelease:
    @pytest.mark.parametrize("runtime", RUNTIME_NAMES)
    def test_run_intermittent_frees_its_cpu(self, built_cpus, runtime):
        """The service's preview and every demoted lane: one sample
        through ``_run_sample``, with outages and a skim."""
        spec = _tiny_spec(runtime)
        built_cpus.clear()
        run = _run_sample(spec)
        assert run.outages > 0
        assert len(built_cpus) == 1 and _alive(built_cpus) == [False]

    def test_reference_cpu_run_is_freed(self, built_cpus):
        spec = _tiny_spec("clank")
        workload = worker_workload("MatMul", "tiny")
        kernel = build_anytime(workload, "swp", 4)
        built_cpus.clear()
        kernel.run_intermittent(
            workload.inputs, _sample_trace(spec), runtime="clank",
            capacitor=Capacitor(capacitance_f=spec.capacitor_f, v_initial=3.0,
                                v_max=3.3),
            watchdog_cycles=spec.watchdog_cycles, cpu_cls=ReferenceCPU,
        )
        assert _alive(built_cpus) == [False]

    def test_progress_stall_frees_its_cpu(self, built_cpus):
        workload = worker_workload("MatMul", "tiny")
        kernel = build_anytime(workload, "precise")
        dead = PowerTrace([0.0] * 100, name="dead")
        try:
            kernel.run_intermittent(workload.inputs, dead,
                                    capacitor=Capacitor(v_initial=0.0))
        except SupplyExhausted:  # a ProgressStall
            pass
        else:
            pytest.fail("an all-dead trace finished a run")
        assert len(built_cpus) == 1 and _alive(built_cpus) == [False]

    def test_sample_timeout_frees_its_cpu(self, built_cpus, monkeypatch):
        spec = _tiny_spec("clank")
        _run_sample(spec)  # builds outside the deadline
        built_cpus.clear()
        monkeypatch.setenv("REPRO_SAMPLE_TIMEOUT", "1e-9")
        try:
            _run_sample(spec)
        except SampleTimeout:
            pass
        else:
            pytest.fail("an expired deadline let the sample finish")
        assert len(built_cpus) == 1 and _alive(built_cpus) == [False]

    def test_continuous_runs_free_their_cpus(self, built_cpus):
        from repro.benchmarking import _run_seconds
        from repro.fault.oracle import compute_golden

        workload = worker_workload("MatMul", "tiny")
        kernel = build_anytime(workload, "swp", 4)
        kernel.run(workload.inputs)
        kernel.quality_curve(workload.inputs, samples=4)
        common.first_skim_cycles(kernel, workload.inputs)
        _run_seconds(kernel, workload.inputs, CPU)
        compute_golden(kernel, workload.inputs)
        record_run_python(kernel, workload.inputs)
        assert len(built_cpus) == 8 and not any(_alive(built_cpus))

    def test_chaos_scenario_frees_its_cpus(self, built_cpus):
        from repro.fault.campaign import generate_scenarios, run_scenario

        for scenario in generate_scenarios(5, 4, RUNTIME_NAMES, ("MatMul",)):
            run_scenario(scenario)
        assert built_cpus and not any(_alive(built_cpus))

    def test_stream_frees_each_sample_cpu(self, built_cpus):
        from repro.runtime.nvp import NVPRuntime
        from repro.runtime.stream import process_stream

        workload = worker_workload("MatMul", "tiny")
        kernel = build_anytime(workload, "swp", 4)
        supply = PowerSupply(
            paper_traces(count=1, duration_ms=3000, base_seed=5)[0],
            Capacitor(v_initial=3.0),
            EnergyModel(),
        )
        stream = process_stream(
            [0, 50, 100], supply, lambda _index: kernel.make_cpu(workload.inputs),
            NVPRuntime, kernel.read_outputs,
        )
        assert stream.processed
        assert len(built_cpus) >= len(stream.processed)
        assert not any(_alive(built_cpus))

    @pytest.mark.parametrize(
        "experiment", ["fig2", "fig13", "fig15", "fig16", "ablation-memo"]
    )
    def test_figure_runs_free_their_cpus(self, built_cpus, experiment):
        from repro.experiments import EXPERIMENTS

        EXPERIMENTS[experiment](ExperimentSetup(scale="tiny"))
        assert built_cpus and not any(_alive(built_cpus))

    @pytest.mark.parametrize("cpu_cls", [CPU, ReferenceCPU, _StagedCPU])
    def test_released_cpu_stays_readable(self, cpu_cls):
        workload = make_workload("MatMul", "tiny")
        kernel = build_anytime(workload, "precise")
        cpu = kernel.make_cpu(workload.inputs, cpu_cls=cpu_cls)
        if cpu_cls is not _StagedCPU:
            cpu.run()
        state = (kernel.read_outputs(cpu), cpu.pc, list(cpu.regs.regs),
                 cpu.stats.cycles)
        cpu.release()
        cpu.release()
        assert (kernel.read_outputs(cpu), cpu.pc, list(cpu.regs.regs),
                cpu.stats.cycles) == state
        assert cpu.load_hook is cpu.store_hook is cpu.skim_hook is None
