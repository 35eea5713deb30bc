"""The two fixed-point step paths, as a fixture of the runtime suites.

A fixed-point batch steps through the native fused kernel wherever
:func:`repro.runtime.native.load` finds a library, and through the NumPy
step otherwise, and a slot engine keeps its books in C (``izh_books``,
:func:`repro.runtime.native.books`) or in NumPy on the same terms; no
option selects the path.  ``step_path`` runs a test on each: its
``numpy`` leg makes the loader find nothing, for the step and the books,
as on a host without a C compiler.  The existing differential suites keep their test
ids on the default path (the native one wherever a compiler exists) and
gain a NumPy leg as ``<Class>OnNumPyStep`` subclasses, which pin the
fixture to ``numpy``::

    @pytest.mark.usefixtures("step_path")
    @pytest.mark.parametrize("step_path", ["numpy"], indirect=True)
    class TestThingOnNumPyStep(TestThing):
        pass

``assert_same_snapshot`` compares two exported snapshots (a batch's or
a slot engine's), nested drive state included.  ``assert_same_grid``
holds a batch's integer synapse grid to its live rows: each row's
effective CSC (the grid's columns from the row's base on) is its own
connectivity's, and the grid propagates as one freshly built from the
rows and as each row's own matrix.
"""

import numpy as np
import pytest

from repro.runtime import native
from repro.runtime.batch import _SynapseBatch

STEP_PATHS = ("native", "numpy")


@pytest.fixture(params=STEP_PATHS)
def step_path(request, monkeypatch):
    """``"native"`` or ``"numpy"``: the step path the test runs on."""
    if request.param == "numpy":
        monkeypatch.setattr(native, "load", lambda: None)
        monkeypatch.setattr(native, "books", lambda: None)
    elif native.load() is None:
        # test_native_step.py fails this case wherever a compiler exists.
        pytest.skip("no native step kernel on this host")
    return request.param



def _assert_same(a, b, where="snapshot"):
    if isinstance(a, dict):
        assert list(a) == list(b), where
        for key in a:
            _assert_same(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same(x, y, f"{where}[{i}]")
    elif isinstance(a, np.random.Generator):
        assert a.bit_generator.state == b.bit_generator.state, where
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b, err_msg=where)
        assert a.dtype == b.dtype, where
    else:
        assert a == b, where


@pytest.fixture
def assert_same_snapshot():
    """``f(a, b)``: arrays equal elementwise, generators by bit-generator state."""
    return _assert_same


def _row_csc(batch, row):
    """``(indptr, indices, weights)`` of row ``row`` on the batch's grid, rebased to 0."""
    indptr, indices, _, weights, _ = batch._synapses.grid
    base = int(batch._base[row])
    pointers = indptr[base: base + batch.size + 1]
    first, last = int(pointers[0]), int(pointers[-1])
    return pointers - first, indices[first:last], weights[first:last]


def _assert_same_grid(batch):
    assert batch._synapses.integer
    synapses = [row.synapses for row in batch.rows]
    for row, synapse in enumerate(synapses):
        where = f"row {row}"
        indptr, indices, weights = _row_csc(batch, row)
        np.testing.assert_array_equal(indptr, synapse.matrix.indptr, err_msg=where)
        np.testing.assert_array_equal(indices, synapse.matrix.indices, err_msg=where)
        np.testing.assert_array_equal(weights, synapse.quantized_q15_16()[0], err_msg=where)
    fresh = _SynapseBatch(synapses, batch.size, "exact")
    base = np.asarray(fresh.build(synapses), dtype=np.int64)
    rng = np.random.default_rng(len(synapses))
    shape = (len(synapses), batch.size)
    for density in (0.05, 0.3, 1.0):
        fired = rng.random(shape) < density
        got, want = np.empty(shape, dtype=np.int64), np.empty(shape, dtype=np.int64)
        batch._synapses.propagate_raw(fired, batch._base, got)
        fresh.propagate_raw(fired, base, want)
        np.testing.assert_array_equal(got, want, err_msg=f"density {density}")
        for row, synapse in enumerate(synapses):  # exact: Q15.16 weights, sums below 2^53
            reference = synapse.matrix @ fired[row].astype(np.float64) * 65536.0
            np.testing.assert_array_equal(got[row], reference, err_msg=f"row {row}")


@pytest.fixture
def assert_same_grid():
    """``f(batch)``: each live row's effective CSC is its own; propagation as a fresh build."""
    return _assert_same_grid
