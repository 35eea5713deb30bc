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
"""

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

