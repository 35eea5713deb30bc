"""Request identity and admission work of the solve service.

A request's identity is a hash of its content alone: it must not move
when the code does (the literal values below are pinned on purpose), and
only the on-disk result cache binds it to the code fingerprint.
Admission work is counted, not timed: a graph is quantised once, however
many recompositions its batch row lives through.
"""

import asyncio

import numpy as np

import repro.runtime.cache as cache_mod
import repro.snn.synapse as synapse_mod
from repro.csp.scenarios import make_instance
from repro.runtime.cache import RunResultCache, derive_cache_key
from repro.serve import SolveService, derive_request_seed

CHECK_INTERVAL = 10

#: Identity and derived seed of ``_golden_request`` under ``SolveService(seed=2)``.
GOLDEN_IDENTITY = "174dd7a626e43e8c82f9399efff17d9c75c8b6496b29fe4e717075fb05a17386"
GOLDEN_SEED = 1634609956450296737


def _golden_request():
    return make_instance("coloring", seed=11, num_vertices=9, num_colors=3)


def _serve(instances, *, cache=None, capacity=1):
    async def main():
        async with SolveService(
            capacity=capacity,
            check_interval=CHECK_INTERVAL,
            seed=2,
            clock="steps",
            cache=cache,
        ) as service:
            return await service.submit_many(instances, max_steps=800)

    return asyncio.run(main())


def test_golden_identity_and_seed():
    (served,) = _serve([_golden_request()])
    assert served.key == GOLDEN_IDENTITY
    assert served.seed == GOLDEN_SEED == derive_request_seed(2, GOLDEN_IDENTITY)


def test_identity_and_result_survive_a_code_change(tmp_path, monkeypatch):
    cache = RunResultCache(tmp_path)
    (before,) = _serve([_golden_request()], cache=cache)
    path_before = cache._path(derive_cache_key("serve", before.key))
    assert path_before.exists()

    other = "f" * 64
    monkeypatch.setattr(cache_mod, "code_fingerprint", lambda: other)
    monkeypatch.setattr(cache_mod, "_FINGERPRINT", other)
    (after,) = _serve([_golden_request()], cache=RunResultCache(tmp_path))

    assert (after.key, after.seed) == (before.key, before.seed) == (GOLDEN_IDENTITY, GOLDEN_SEED)
    assert not after.from_cache  # the old code's entry is not served
    assert after.result.steps == before.result.steps
    assert after.result.total_spikes == before.result.total_spikes
    np.testing.assert_array_equal(after.result.values, before.result.values)
    path_after = cache._path(derive_cache_key("serve", after.key))
    assert path_after != path_before
    assert path_after.exists()


def test_each_graph_is_quantised_once(monkeypatch):
    graphs = 5
    calls = []
    quantize = synapse_mod.quantize_weights_q15_16

    def counting(weights):
        calls.append(1)
        return quantize(weights)

    monkeypatch.setattr(synapse_mod, "quantize_weights_q15_16", counting)
    instances = [make_instance("coloring", seed=20 + i, num_vertices=9) for i in range(graphs)]
    # Two rows for five graphs: rows finish and refill through several
    # retain/extend recompositions, each rebuilding the integer stack.
    served = _serve(instances, capacity=2)
    assert all(s.result is not None for s in served)
    assert len(calls) == graphs
