"""The two fixed-point step paths, as a fixture of the runtime suites.

A fixed-point batch steps through the native fused kernel wherever
:func:`repro.runtime.native.load` finds a library, and through the NumPy
step otherwise; no option selects the path.  ``step_path`` runs a test on
each: its ``numpy`` leg makes the loader find nothing, as on a host
without a C compiler.  The existing differential suites keep their test
ids on the default path (the native one wherever a compiler exists) and
gain a NumPy leg as ``<Class>OnNumPyStep`` subclasses, which pin the
fixture to ``numpy``::

    @pytest.mark.usefixtures("step_path")
    @pytest.mark.parametrize("step_path", ["numpy"], indirect=True)
    class TestThingOnNumPyStep(TestThing):
        pass

``assert_same_snapshot`` compares two exported snapshots (a batch's or
a slot engine's), nested drive state included.
"""

import numpy as np
import pytest

from repro.runtime import native

STEP_PATHS = ("native", "numpy")


@pytest.fixture(params=STEP_PATHS)
def step_path(request, monkeypatch):
    """``"native"`` or ``"numpy"``: the step path the test runs on."""
    if request.param == "numpy":
        monkeypatch.setattr(native, "load", lambda: None)
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
