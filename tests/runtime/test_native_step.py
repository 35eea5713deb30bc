"""The native fused step against its references, and how it is built and found.

A fixed-point batch whose synapses run on the integer kernel (or are
absent) steps through one C call (``repro/runtime/native_step.c``)
wherever :func:`repro.runtime.native.load` finds a library, and through
the NumPy step otherwise.  This suite holds both paths to the reference
datapath term for term — :func:`repro.snn.fixed_izhikevich.decay_current_raw`,
``Q15_16.from_float`` and :func:`repro.sim.npu.izhikevich_update_raw` —
over the whole Q7.8 state range, saturating and infinite currents, every
DCU selector and timestep, with and without the pin, for shared, flat
and absent synapses in both current modes.  It holds the C step's copy
of NumPy's normal sampler to ``Generator.standard_normal`` over 10^7
draws from every NumPy bit generator, and pins what a NaN step leaves
behind on each path.  It also pins the loader's contract: lazily built,
cached on disk by content (NumPy's ``npyrandom`` archive included),
loaded from a warm cache without starting a process, checked against
NumPy before it is bound, and one logged warning for each way it can
fail.
"""

import contextlib
import ctypes
import functools
import logging
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from repro.csp import SpikingCSPSolver
from repro.csp.scenarios import make_instance
from repro.csp.solver import CSP_SLOT_DECODER
from repro.fixedpoint import Q7_8, Q15_16
from repro.runtime import BatchedNetwork, drives, native
from repro.runtime.slots import _BOOKS, SlotEngine, SlotRow
from repro.sim.npu import izhikevich_update_raw
from repro.snn.fixed_izhikevich import FixedPointPopulation, decay_current_raw
from repro.snn.izhikevich import IzhikevichPopulation
from repro.snn.network import SNNNetwork
from repro.snn.synapse import SparseSynapses, quantize_weights_q15_16

BATCH, SIZE, STEPS = 3, 40, 3
#: (B, N) of the randomized datapath suite: the cell counts that are not
#: multiples of 8 leave a vector tail, and N = 729 is a Sudoku row.
TAIL_SHAPES = tuple((b, n) for n in (1, 7, 9, 729) for b in (1, 2, 3))
STEP_PATHS = ("native", "numpy")
SRC = str(Path(__file__).resolve().parents[2] / "src")


def _sparse(rng, size=SIZE):
    """Random sparse weights, every one an exact Q15.16 value."""
    nnz = max(1, size * size // 6)
    rows, cols = rng.integers(0, size, nnz), rng.integers(0, size, nnz)
    weights = rng.integers(-20 * 65536, 20 * 65536, nnz) / 65536.0
    return SparseSynapses(sparse.coo_matrix((weights, (rows, cols)), shape=(size, size)))


def _synapses(kind, rng, shape=(BATCH, SIZE)):
    batch, size = shape
    if kind == "none":
        return [None] * batch
    if kind == "shared":
        return [_sparse(rng, size)] * batch
    return [_sparse(rng, size) for _ in range(batch)]


def _currents(rng, shape=(BATCH, SIZE)):
    """Drive currents: ordinary, saturating past +-2^31 raw, rounding ties, +-inf.

    The 24 special values land on random cells, as many as there are.
    """
    values = rng.uniform(-60.0, 60.0, size=shape)
    special = np.concatenate([
        rng.uniform(-1e5, 1e5, size=12),  # far past Q15.16
        (rng.integers(-(2**20), 2**20, size=8) + 0.5) / 65536.0,  # rounding ties
        (np.inf, -np.inf, 1e300, -1e300),
    ])
    flat = values.reshape(-1)
    picks = rng.permutation(flat.size)[: special.size]
    flat[picks] = special[rng.permutation(special.size)[: picks.size]]
    return values


def _noise(replica, step):
    """A drive that is a pure function of (replica, step), so runs can be repeated."""
    return np.random.default_rng((replica, step)).uniform(-5.0, 25.0, SIZE)


def _batch(rng, kind, *, mode, tau_select, h_shift, pin, shape=(BATCH, SIZE)):
    """A batch over random raw state spanning the whole Q7.8 range."""
    size = shape[1]

    def q78():
        return rng.integers(Q7_8.raw_min, Q7_8.raw_max + 1, size=size)

    def q411():
        return rng.integers(-(2**15), 2**15, size=size)

    drive = np.zeros(shape)  # row b is replica b's input, set per step
    networks = [
        SNNNetwork(
            population=FixedPointPopulation(
                a_raw=q411(), b_raw=q411(), c_raw=q78(), d_raw=q411(),
                v_raw=q78(), u_raw=q78(), h_shift=h_shift, pin_voltage=pin,
            ),
            synapses=synapses,
            external_input=lambda step, b=b: drive[b],
            current_mode=mode,
            tau_select=tau_select,
        )
        for b, synapses in enumerate(_synapses(kind, rng, shape))
    ]
    batch = BatchedNetwork.from_networks(networks)
    np.copyto(batch._isyn_raw, rng.integers(Q15_16.raw_min, Q15_16.raw_max + 1, shape))
    np.copyto(batch._last_fired, rng.random(shape) < 0.3)
    weights = [
        None if s is None else quantize_weights_q15_16(s.matrix.toarray())[0]
        for s in (n.synapses for n in networks)
    ]
    return batch, drive, weights


def _reference_step(batch, drive, weights, *, mode, tau_select, h_shift, pin):
    """One step of the reference datapath on copies of the batch state."""
    last = batch._last_fired
    syn = np.stack([
        np.zeros(batch.size, dtype=np.int64) if w is None else w @ last[b].astype(np.int64)
        for b, w in enumerate(weights)
    ])
    current = drive + syn / 65536.0
    if mode == "decay":
        decayed = decay_current_raw(batch._isyn_raw, tau_select, h_shift)
        current = (decayed / 65536.0 + drive) + syn / 65536.0
    isyn = np.asarray(Q15_16.from_float(current), dtype=np.int64)
    v, u = batch.v_raw.copy(), batch.u_raw.copy()
    fired = np.zeros(v.shape, dtype=bool)
    for _ in range(1 << h_shift):
        v, u, spike = izhikevich_update_raw(
            v, u, isyn, a_raw=batch.a_raw, b_raw=batch.b_raw, c_raw=batch.c_raw,
            d_raw=batch.d_raw, h_shift=h_shift, pin_voltage=pin,
        )
        fired |= spike.astype(bool)
    return isyn, v, u, fired


KINDS = ("none", "shared", "flat")


class TestAgainstTheReference:
    @pytest.mark.parametrize("mode", ["recompute", "decay"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_randomized_steps_match_the_datapath(self, step_path, kind, mode):
        rng = np.random.default_rng(KINDS.index(kind) * 2 + (mode == "decay"))
        self._randomized_steps(step_path, kind, mode, (BATCH, SIZE), rng)

    @pytest.mark.parametrize("shape", TAIL_SHAPES, ids=lambda shape: "B%dxN%d" % shape)
    @pytest.mark.parametrize("mode", ["recompute", "decay"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_vector_tails_match_the_datapath(self, step_path, kind, mode, shape):
        rng = np.random.default_rng([KINDS.index(kind), mode == "decay", *shape])
        self._randomized_steps(step_path, kind, mode, shape, rng)

    @staticmethod
    def _randomized_steps(step_path, kind, mode, shape, rng):
        """Every DCU selector, timestep and pin, STEPS steps each, against the reference."""
        for tau_select in range(1, 10):
            # (h_shift, pin) walks all eight pairs over the nine selectors.
            h_shift, pin = tau_select % 4, bool((tau_select // 4) % 2)
            options = dict(mode=mode, tau_select=tau_select, h_shift=h_shift, pin=pin)
            batch, drive, weights = _batch(rng, kind, shape=shape, **options)
            assert batch.native_step == (step_path == "native")
            for step in range(STEPS):
                drive[...] = _currents(rng, shape)
                isyn, v, u, fired = _reference_step(batch, drive, weights, **options)
                got = batch.step(step)
                case = f"{options} step {step}"
                np.testing.assert_array_equal(batch._isyn_raw, isyn, err_msg=case)
                np.testing.assert_array_equal(batch.v_raw, v, err_msg=case)
                np.testing.assert_array_equal(batch.u_raw, u, err_msg=case)
                np.testing.assert_array_equal(got, fired, err_msg=case)

    def test_a_nan_current_raises_and_leaves_the_neurons_untouched(self, step_path):
        population = FixedPointPopulation.from_float_parameters(
            np.full(4, 0.1), np.full(4, 0.2), np.full(4, -65.0), np.full(4, 2.0)
        )
        network = SNNNetwork(
            population=population, external_input=lambda step: np.array([1.0, np.nan, 2.0, 3.0])
        )
        batch = BatchedNetwork.from_networks([network])
        v, u = batch.v_raw.copy(), batch.u_raw.copy()
        with pytest.raises(FloatingPointError):
            batch.step(0)
        np.testing.assert_array_equal(batch.v_raw, v)
        np.testing.assert_array_equal(batch.u_raw, u)

    @pytest.mark.parametrize("kind", ["shared", "flat"])
    def test_the_block_reads_the_synapse_grid_in_place(self, kind):
        if native.load() is None:
            pytest.skip("no native step kernel on this host")
        rng = np.random.default_rng(5)
        batch, _, _ = _batch(rng, kind, mode="decay", tau_select=2, h_shift=1, pin=True)
        block = batch._native_binding()._keep[0]
        indptr, indices, _, weights, _ = batch._synapses._gather
        assert [a.dtype for a in (indptr, indices, weights)] == [np.int64] * 3
        assert (block.indptr, block.indices, block.weights) == (
            indptr.ctypes.data, indices.ctypes.data, weights.ctypes.data
        )

    def test_pointers_follow_retain_extend_and_restore(self, step_path):
        """Each recomposition rebinds the step; a restore copies under the bound pointers."""
        ones = np.ones(SIZE)

        def networks(replicas):
            rng = np.random.default_rng(8)
            synapses = [_sparse(rng) for _ in range(5)]  # one matrix each: the flat grid
            return [
                SNNNetwork(
                    population=FixedPointPopulation.from_float_parameters(
                        0.1 * ones, 0.2 * ones, -65.0 * ones, 2.0 * ones, pin_voltage=True
                    ),
                    synapses=synapses[b],
                    external_input=functools.partial(_noise, b),
                    current_mode="decay",
                    tau_select=2,
                )
                for b in replicas
            ]

        def steps(batch, start, count):
            return np.stack([batch.step(t).copy() for t in range(start, start + count)], axis=1)

        reference = [net.run(30).to_bool_matrix() for net in networks(range(5))]
        batch = BatchedNetwork.from_networks(networks([0, 1, 2]))
        assert batch.native_step == (step_path == "native")
        head = steps(batch, 0, 10)
        saved = batch.export_state()
        steps(batch, 10, 4)
        batch.restore_state(saved)  # in place: the bound pointers stay valid
        batch.retain([0, 2])
        middle = steps(batch, 10, 10)
        incoming = networks([3, 4])
        for network in incoming:
            network.run(20)
        batch.extend(incoming)
        assert batch.native_step == (step_path == "native")
        tail = steps(batch, 20, 10)
        for row, b in enumerate([0, 1, 2]):
            np.testing.assert_array_equal(head[row], reference[b][:10])
        for row, b in enumerate([0, 2]):
            np.testing.assert_array_equal(middle[row], reference[b][10:20])
        for row, b in enumerate([0, 2, 3, 4]):
            np.testing.assert_array_equal(tail[row], reference[b][20:30])


def _require_a_build(*, compiler=True):
    """Skip where the library cannot be built: no npyrandom archive (or compiler)."""
    if not native.ARCHIVE.is_file():
        pytest.skip("no npyrandom archive in this NumPy")
    if compiler and shutil.which("gcc") is None and shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")


class TestLoader:
    @pytest.fixture
    def fresh(self, monkeypatch, tmp_path):
        """An unloaded loader whose cache is an empty directory."""
        monkeypatch.setattr(native, "_lib", native._UNLOADED)
        monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path)
        return tmp_path

    @pytest.mark.skipif(not hasattr(os, "getuid"), reason="POSIX ownership")
    def test_a_cache_others_may_write_is_not_used(self, monkeypatch, tmp_path):
        shared = tmp_path / "cache" / "repro-native"
        shared.mkdir(parents=True)
        shared.chmod(0o777)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(native.tempfile, "gettempdir", lambda: str(tmp_path / "tmp"))
        chosen = native._cache_dir()
        assert chosen.parent == tmp_path / "tmp"
        assert not chosen.stat().st_mode & 0o077

    def test_a_host_with_a_compiler_loads_the_kernel(self):
        # Otherwise CI would silently test only the NumPy fallback.
        _require_a_build()
        assert native.load() is not None

    def test_a_cold_cache_builds_once_under_a_content_name(self, fresh):
        _require_a_build()
        assert native.load() is not None
        assert native.load() is native.load()
        assert [p.name for p in fresh.iterdir()] == [native.library_name()]

    def test_a_warm_cache_starts_no_process(self):
        if native.load() is None:
            pytest.skip("no native step kernel on this host")
        script = textwrap.dedent(
            f"""
            import subprocess, sys
            sys.path.insert(0, {SRC!r})

            def refuse(*args, **kwargs):
                raise AssertionError("a warm cache must not start a process")

            subprocess.run = subprocess.Popen = refuse
            from repro.runtime import native
            assert native.load() is not None
            """
        )
        subprocess.run([sys.executable, "-c", script], check=True)

    def test_no_compiler_warns_once(self, fresh, monkeypatch, caplog):
        _require_a_build(compiler=False)
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            assert native.load() is None
            assert native.load() is None
        [record] = caplog.records
        assert "no C compiler" in record.getMessage()

    def test_a_build_failure_warns_with_the_compiler_output(self, fresh, monkeypatch, caplog):
        _require_a_build()
        broken = fresh / "broken.c"
        broken.write_text("int izh_step(void) { return syntax error; }\n")
        monkeypatch.setattr(native, "SOURCE", broken)
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            assert native.load() is None
        [record] = caplog.records
        assert "build with" in record.getMessage() and "error" in record.getMessage()
        assert [p.name for p in fresh.iterdir()] == ["broken.c"]  # no partial library

    def test_a_load_failure_warns(self, fresh, caplog):
        _require_a_build(compiler=False)
        (fresh / native.library_name()).write_bytes(b"not a shared object")
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            assert native.load() is None
        [record] = caplog.records
        assert "load of" in record.getMessage()

    def _assert_numpy_step(self):
        networks = _csp_networks([1, 2])
        batch = BatchedNetwork.from_networks(networks)
        assert not batch.native_step
        spikes = np.stack([batch.step(t).copy() for t in range(1, 30)], axis=1)
        for row, network in zip(spikes, networks):
            np.testing.assert_array_equal(row, np.stack([network.step(t) for t in range(1, 30)]))

    def test_a_missing_archive_warns_once(self, fresh, monkeypatch, caplog):
        monkeypatch.setattr(native, "ARCHIVE", fresh / "lib" / "libnpyrandom.a")
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            assert native.load() is None
            self._assert_numpy_step()
        [record] = caplog.records
        assert "npyrandom archive not found" in record.getMessage()

    def test_a_failed_self_check_warns_once(self, fresh, monkeypatch, caplog):
        _require_a_build()
        monkeypatch.setattr(native, "_self_check", lambda fill: "3 of 65536 draws differ")
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            assert native.load() is None
            assert native.normals() is None
            self._assert_numpy_step()
        [record] = caplog.records
        assert "disagrees with NumPy" in record.getMessage()
        assert "3 of 65536 draws differ" in record.getMessage()

    def test_the_self_check_sees_one_changed_draw(self):
        fill = native.normals()
        if fill is None:
            pytest.skip("no native step kernel on this host")
        assert native._self_check(fill) is None

        def off_by_one_ulp(bitgen, count, out):
            fill(bitgen, count, out)
            view = np.ctypeslib.as_array(ctypes.cast(out, ctypes.POINTER(ctypes.c_double)), (count,))
            view[count // 2] = np.nextafter(view[count // 2], np.inf)

        message = native._self_check(off_by_one_ulp)
        assert message is not None and f"draw {native.CHECK_DRAWS // 2}" in message

    def test_the_cache_name_follows_the_archive(self, monkeypatch, tmp_path):
        archive = tmp_path / "libnpyrandom.a"
        archive.write_bytes(b"!<arch>\none NumPy build")
        monkeypatch.setattr(native, "ARCHIVE", archive)
        name = native.library_name()
        assert native.library_name() == name
        archive.write_bytes(b"!<arch>\nanother NumPy build")
        assert native.library_name() != name


# ---------------------------------------------------------------------- #
# The inline normal sampler and the annealed drive in C
# ---------------------------------------------------------------------- #
#: NumPy's ziggurat_nor_r: only the layer-0 tail returns values this large.
ZIGGURAT_R = 3.6541528853610088
BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
                  np.random.Philox, np.random.SFC64)


def _csp_networks(seeds):
    """Coloring solver networks: their annealed drives compile into one."""
    graph, clamps = make_instance("coloring", seed=3, num_vertices=8, num_colors=3)
    return [SpikingCSPSolver(graph, seed=seed).build_network(clamps) for seed in seeds]


@contextlib.contextmanager
def _on_path(path):
    """Batches first stepped, and slot engines composed, inside take ``path``:
    ``"native"`` or ``"numpy"``."""
    with pytest.MonkeyPatch.context() as patch:
        if path == "numpy":
            patch.setattr(native, "load", lambda: None)
            patch.setattr(native, "books", lambda: None)
        yield


class TestInlineNormals:
    @pytest.mark.parametrize("kind", BIT_GENERATORS, ids=lambda kind: kind.__name__)
    def test_equals_numpy_s_sampler(self, kind):
        """2 * 10^6 draws per bit generator, 10^7 in all, bit for bit."""
        fill = native.normals()
        if fill is None:
            pytest.skip("no native step kernel on this host")
        mine, reference = (np.random.Generator(kind(1234)) for _ in range(2))
        got = np.empty(500_000)
        slow = tails = 0
        for _ in range(4):
            slow += fill(mine.bit_generator.ctypes.bit_generator, got.size, got.ctypes.data)
            expected = reference.standard_normal(got.size)
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
            tails += int(np.count_nonzero(np.abs(got) >= ZIGGURAT_R))
        # Both slow paths ran through the replay: the layer-0 tail, and
        # the wedges (a replayed draw that is not a tail value).
        assert tails > 0
        assert slow > tails
        # The streams still agree afterwards.
        assert mine.standard_normal() == reference.standard_normal()
        assert mine.random() == reference.random()
        np.testing.assert_array_equal(
            mine.bit_generator.random_raw(4), reference.bit_generator.random_raw(4)
        )

    def test_the_native_step_evaluates_the_annealed_drive_itself(self, monkeypatch):
        batch = BatchedNetwork.from_networks(_csp_networks([1, 2]))
        if not batch.native_step:
            pytest.skip("no native step kernel on this host")

        def refuse(self, step):  # pragma: no cover - the failure path
            raise AssertionError("the native step called the annealed drive")

        monkeypatch.setattr(drives.PortfolioAnnealedDrive, "__call__", refuse)
        for step in range(1, 20):
            batch.step(step)

    def test_steps_before_a_row_s_offset_take_the_floor_mod_phase(self, step_path):
        """A row admitted at a later step sees negative local steps before it:
        the phase is a floor-mod, as NumPy's ``%`` (and the closure's) is."""
        networks = _csp_networks([1, 2])
        closures = [network.external_input for network in _csp_networks([1, 2])]
        batch = BatchedNetwork.from_networks(networks)
        batch._drive._offsets[:] = (250, 37)  # read in place by the native step
        assert batch.native_step == (step_path == "native")
        spikes = np.stack([batch.step(t).copy() for t in range(1, 40)], axis=1)
        for row, (network, offset) in enumerate(zip(networks, (250, 37))):
            network.external_input = lambda t, c=closures[row], o=offset: c(t - o)
            expected = np.stack([network.step(t) for t in range(1, 40)])
            np.testing.assert_array_equal(spikes[row], expected)

    def test_a_restore_onto_the_live_batch_replays_the_run(self, step_path):
        """Saved mid-run, stepped, restored in place and stepped again: the
        rewound generators are the ones the bound step reads."""

        def steps(batch, start, count):
            return np.stack([batch.step(t).copy() for t in range(start, start + count)])

        reference = steps(BatchedNetwork.from_networks(_csp_networks([4, 5, 6])), 1, 60)
        batch = BatchedNetwork.from_networks(_csp_networks([4, 5, 6]))
        assert batch.native_step == (step_path == "native")
        head = steps(batch, 1, 20)
        saved = batch.export_state()
        steps(batch, 21, 15)
        batch.restore_state(saved)
        tail = steps(batch, 21, 40)
        np.testing.assert_array_equal(np.concatenate([head, tail]), reference)


# ---------------------------------------------------------------------- #
# A NaN step leaves the state as it found it, on every path
# ---------------------------------------------------------------------- #
class TestANaNStep:
    def test_the_three_paths_end_equal(self):
        inputs = {0: [30.0] * 4, 1: [1.0, np.nan, 2.0, 3.0], 2: [30.0] * 4}

        def network():
            population = FixedPointPopulation.from_float_parameters(
                np.full(4, 0.02), np.full(4, 0.2), np.full(4, -65.0), np.full(4, 8.0)
            )
            return SNNNetwork(population=population, current_mode="decay",
                              external_input=lambda step: np.array(inputs[step]))

        def run(stepper):
            stepper(0)
            with pytest.raises(FloatingPointError):
                stepper(1)
            stepper(2)

        sequential = network()
        run(sequential.step)
        ends = {}
        for path in STEP_PATHS:
            with _on_path(path):
                batch = BatchedNetwork.from_networks([network()])
                run(batch.step)
                ends[path] = batch
        if not ends["native"].native_step:
            del ends["native"]
        isyn = np.asarray(Q15_16.from_float(sequential.current_state.current), dtype=np.int64)
        for path, batch in ends.items():
            np.testing.assert_array_equal(batch._isyn_raw[0], isyn, err_msg=path)
            np.testing.assert_array_equal(batch.v_raw[0], sequential.population.v_raw, err_msg=path)
            np.testing.assert_array_equal(batch.u_raw[0], sequential.population.u_raw, err_msg=path)
            np.testing.assert_array_equal(batch._last_fired[0], sequential._last_fired, err_msg=path)

    @pytest.mark.parametrize("mode", ["recompute", "decay"])
    def test_the_float64_backend_refuses_a_nan_current(self, mode):
        """Sequential and batched alike: ok, raise, ok, ok, and equal, finite ends."""
        inputs = {0: [30.0] * 4, 1: [1.0, np.nan, 2.0, 3.0], 2: [30.0] * 4, 3: [30.0] * 4}
        calls = []

        def network():
            population = IzhikevichPopulation(
                a=np.full(4, 0.02), b=np.full(4, 0.2), c=np.full(4, -65.0),
                d=np.full(4, 8.0), v=np.full(4, -65.0), u=np.full(4, -13.0),
            )

            def drive(step):
                calls.append(step)
                return np.array(inputs[step])

            return SNNNetwork(population=population, current_mode=mode, external_input=drive)

        sequential = network()
        batch = BatchedNetwork.from_networks([network()])
        for stepper in (sequential.step, batch.step):
            outcomes = []
            for step in range(4):
                try:
                    stepper(step)
                    outcomes.append("ok")
                except FloatingPointError:
                    outcomes.append("raise")
            assert outcomes == ["ok", "raise", "ok", "ok"]
        assert calls == [0, 1, 2, 3] * 2  # the NaN step still read its input
        assert np.isfinite(sequential.population.v).all()
        np.testing.assert_array_equal(batch.v[0], sequential.population.v)
        np.testing.assert_array_equal(batch.u[0], sequential.population.u)
        np.testing.assert_array_equal(batch._current[0], sequential.current_state.current)
        np.testing.assert_array_equal(batch._last_fired[0], sequential._last_fired)

    def test_an_annealed_batch_advances_every_stream_by_one_step(self, assert_same_snapshot):
        graph, clamps = make_instance("coloring", seed=3, num_vertices=8, num_colors=3)
        solver = SpikingCSPSolver(graph, seed=1)
        ends = {}
        for path in STEP_PATHS:
            with _on_path(path):
                batch = BatchedNetwork.from_networks([solver.row(clamps, seed=s) for s in (7, 8)])
                for step in range(1, 6):
                    batch.step(step)
                batch._drive._drives[0, 5] = np.nan  # read in place; row 1 must still draw
                before = batch.export_state()
                before["drive"]["rngs"] = None  # compared below
                with pytest.raises(FloatingPointError):
                    batch.step(6)
                after = batch.export_state()
                streams = after["drive"].pop("rngs")
                after["drive"]["rngs"] = None
                assert_same_snapshot(after, before, path)
                ends[path] = (batch.native_step, streams)
        assert not ends["numpy"][0]
        # Six steps of N draws on every row, the NaN row's included.
        for seed, stream in zip((7, 8), ends["numpy"][1]):
            fresh = np.random.default_rng(seed)
            fresh.standard_normal(6 * graph.num_neurons)
            assert stream.bit_generator.state == fresh.bit_generator.state
        if ends["native"][0]:
            assert_same_snapshot(ends["native"][1], ends["numpy"][1])


# ---------------------------------------------------------------------- #
# The slot books in C against the NumPy books
# ---------------------------------------------------------------------- #
def _random_step(batch, step_index):
    """Stands in for ``BatchedNetwork.step``: a random fired mask per (step, rows),
    written into the batch's own buffers and swapped as the real step does."""
    fired = batch._fired
    fired[...] = np.random.default_rng([step_index, batch.batch_size]).random(fired.shape) < 0.3
    batch._last_fired, batch._fired = fired, batch._last_fired
    return batch._last_fired


def _books_run(path, window, check_interval):
    """The books and checkpoint masks after every step of one serve-style run on ``path``.

    Rows join at different global steps, budgets fall between checks and
    inside the window, the engine retains and extends mid-run (once to
    the same row count, so only the rebound pointers tell the books
    apart), and the run is saved and restored onto a fresh engine.
    """
    graph, clamps = make_instance("coloring", seed=3, num_vertices=8, num_colors=3)
    solver = SpikingCSPSolver(graph, seed=1)

    def admission(seed, budget):
        row = SlotRow(graph=graph, clamps=clamps, budget=budget, payload=seed)
        return row, solver.row(clamps, seed=seed)

    def engine():
        return SlotEngine(decoder=CSP_SLOT_DECODER, window=window, check_interval=check_interval)

    records = []

    def steps(live, count):
        for _ in range(count):
            checkpoint = live.step()
            masks = None if checkpoint is None else (
                checkpoint.local, checkpoint.at_check, checkpoint.at_budget)
            books = {key: getattr(live, attr).copy() for key, attr, _ in _BOOKS}
            records.append((books, masks))

    with _on_path(path):
        live = engine()
        live.admit([admission(1, 9), admission(2, 25)])
        assert (live._native_books is not None) == (path == "native")
        steps(live, 4)
        live.admit([admission(3, 13)])
        steps(live, 6)
        live.recompose([0, 2], [admission(4, 17)])
        steps(live, 7)
        live.recompose([1, 2], [admission(5, 40), admission(6, 11)])
        steps(live, 5)
        state = live.export_state([row.payload for row in live.rows])
        rebuilt = [(row.payload, solver.row(clamps, seed=row.payload)) for row in live.rows]
        live = engine()
        live.restore_state(state, rebuilt)
        steps(live, 20)
    return records


class TestNativeBooks:
    @pytest.mark.parametrize("check_interval", [1, 7, 10])
    @pytest.mark.parametrize("window", [1, 3, 20])
    def test_equal_the_numpy_books_after_every_step(
        self, monkeypatch, assert_same_snapshot, window, check_interval
    ):
        if native.books() is None:
            pytest.skip("no native step kernel on this host")
        monkeypatch.setattr(BatchedNetwork, "step", _random_step)
        mine, reference = (_books_run(path, window, check_interval) for path in STEP_PATHS)
        assert len(mine) == len(reference) == 42
        assert any(masks is not None for _, masks in reference)
        for step, (got, expected) in enumerate(zip(mine, reference)):
            assert_same_snapshot(got, expected, f"step {step}")
