"""reprolint framework + rule tests.

Each rule gets at least one failing and one passing fixture, built in a
throw-away tree under ``tmp_path`` and linted with the default config
(the fixture layout mirrors the real repo's ``src/repro`` paths so the
rules' scope prefixes apply unchanged).  The suite ends with the
self-check the CI job relies on: the *real* tree lints clean.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint.config import ReprolintConfig  # noqa: E402
from tools.reprolint.engine import run_reprolint  # noqa: E402
from tools.reprolint.rules import get_rules  # noqa: E402


def lint(tmp_path, files, roots=None, config=None):
    """Write ``files`` (rel -> source) under ``tmp_path`` and lint them."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    if roots is None:
        roots = sorted({rel.split("/")[0] for rel in files})
    return run_reprolint(tmp_path, roots, config or ReprolintConfig())


def rules_hit(result):
    return sorted({violation.rule for violation in result.violations})


# ---------------------------------------------------------------------- #
# Framework: registry, suppressions, parse failures
# ---------------------------------------------------------------------- #
class TestFramework:
    def test_all_five_rules_registered(self):
        assert [rule.rule_id for rule in get_rules()] == [
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
        ]

    def test_unparseable_file_is_reported_not_crashed(self, tmp_path):
        result = lint(tmp_path, {"src/repro/runtime/bad.py": "def broken(:\n"})
        assert rules_hit(result) == ["RL000"]
        assert "cannot lint" in result.violations[0].message

    def test_same_line_suppression(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/a.py": """\
                s = seed + 1  # reprolint: disable=RL002 -- fixture waiver
                """
            },
        )
        assert result.ok, result.render_text()

    def test_disable_next_line_suppression(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/a.py": """\
                # reprolint: disable-next-line=RL002
                s = seed + 1
                """
            },
        )
        assert result.ok, result.render_text()

    def test_disable_file_suppression(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/a.py": """\
                # reprolint: disable-file=RL002
                s = seed + 1
                t = seed + 2
                """
            },
        )
        assert result.ok, result.render_text()

    def test_suppression_only_covers_listed_rule(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/a.py": """\
                s = seed + 1  # reprolint: disable=RL001 -- wrong rule id
                """
            },
        )
        # The RL002 finding survives AND the RL001 waiver is unused.
        assert rules_hit(result) == ["RL000", "RL002"]

    def test_unused_suppression_is_flagged(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/a.py": """\
                x = 1  # reprolint: disable=RL002 -- stale
                """
            },
        )
        assert rules_hit(result) == ["RL000"]
        assert "unused suppression" in result.violations[0].message

    def test_disable_rule_wholesale(self, tmp_path):
        config = ReprolintConfig(disable=("RL002",), check_unused_suppressions=False)
        result = lint(
            tmp_path,
            {"src/repro/runtime/a.py": "s = seed + 1\n"},
            config=config,
        )
        assert result.ok
        assert "RL002" not in result.rules_run

    def test_json_shape(self, tmp_path):
        result = lint(tmp_path, {"src/repro/runtime/a.py": "s = seed + 1\n"})
        payload = result.as_json()
        assert payload["tool"] == "reprolint"
        assert payload["summary"] == {"RL002": 1}
        (violation,) = payload["violations"]
        assert violation["rule"] == "RL002"
        assert violation["path"] == "src/repro/runtime/a.py"


# ---------------------------------------------------------------------- #
# RL001 — layering
# ---------------------------------------------------------------------- #
class TestLayering:
    def test_module_scope_upward_import_fails(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/uses_csp.py": """\
                from repro.csp import solver
                """
            },
        )
        assert rules_hit(result) == ["RL001"]
        assert "upward import" in result.violations[0].message

    def test_relative_upward_import_fails(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/uses_csp.py": """\
                from ..csp import solver
                """
            },
        )
        assert rules_hit(result) == ["RL001"]

    def test_downward_import_passes(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/serve/uses_runtime.py": """\
                from repro.runtime import batch
                from ..csp import solver
                """
            },
        )
        assert result.ok, result.render_text()

    def test_deferred_upward_import_passes(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/lazy.py": """\
                def build():
                    from repro.csp import solver

                    return solver
                """
            },
        )
        assert result.ok, result.render_text()

    def test_type_checking_upward_import_passes(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/typed.py": """\
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.csp import solver
                """
            },
        )
        assert result.ok, result.render_text()

    def test_module_scope_adapter_import_fails(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/uses_adapter.py": """\
                from repro.harness import experiments
                """
            },
        )
        assert rules_hit(result) == ["RL001"]
        assert "adapter" in result.violations[0].message

    def test_adapter_may_import_any_layer(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/harness/uses_all.py": """\
                from repro.csp import solver
                from repro.serve import service
                """
            },
        )
        assert result.ok, result.render_text()

    def test_batch_seam_outside_runtime_fails(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/csp/recompose.py": """\
                def refill(self, survivors, admissions):
                    self._batch.retain(survivors)
                    self._batch.extend(admissions)
                """
            },
        )
        assert len(result.violations) == 2
        assert rules_hit(result) == ["RL001"]

    def test_batch_seam_inside_runtime_passes(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/slots2.py": """\
                def recompose(self, survivors, admissions):
                    self._batch.retain(survivors)
                    self._batch.extend(admissions)
                """
            },
        )
        assert result.ok, result.render_text()

    def test_list_extend_is_not_the_seam(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/csp/listy.py": """\
                def collect(rows):
                    out = []
                    out.extend(rows)
                    return out
                """
            },
        )
        assert result.ok, result.render_text()


# ---------------------------------------------------------------------- #
# RL002 — determinism
# ---------------------------------------------------------------------- #
class TestDeterminism:
    def test_unseeded_default_rng_fails(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/snn/gen.py": """\
                import numpy as np

                rng = np.random.default_rng()
                """
            },
        )
        assert rules_hit(result) == ["RL002"]

    def test_seeded_default_rng_passes(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/snn/gen.py": """\
                import numpy as np

                def build(seed):
                    return np.random.default_rng(seed)
                """
            },
        )
        assert result.ok, result.render_text()

    def test_legacy_np_random_module_rng_fails(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/snn/gen.py": """\
                import numpy as np

                noise = np.random.rand(100)
                """
            },
        )
        assert rules_hit(result) == ["RL002"]

    def test_stdlib_random_fails(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/snn/gen.py": """\
                import random

                jitter = random.random()
                """
            },
        )
        assert rules_hit(result) == ["RL002"]

    def test_raw_seed_arithmetic_fails(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/seeds.py": """\
                def spread(base_seed, n):
                    return [base_seed + i for i in range(n)]
                """
            },
        )
        assert rules_hit(result) == ["RL002"]
        assert "raw seed arithmetic" in result.violations[0].message

    def test_seed_arithmetic_inside_mixer_is_sanctioned(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/seeds.py": """\
                from numpy.random import SeedSequence


                def spread(base_seed, n, salt):
                    root = SeedSequence(base_seed ^ salt)
                    return [derive_task_seed(base_seed + 17, i) for i in range(n)]
                """
            },
        )
        assert result.ok, result.render_text()

    def test_wall_clock_read_fails_in_clock_scope(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/csp/timing.py": """\
                import time


                def stamp():
                    return time.monotonic()
                """
            },
        )
        assert rules_hit(result) == ["RL002"]
        assert "wall-clock" in result.violations[0].message

    def test_clock_allowlist_exempts_module(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/sweep.py": """\
                import time


                def stamp():
                    return time.monotonic()
                """
            },
        )
        assert result.ok, result.render_text()

    def test_clock_outside_scope_passes(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "benchmarks/bench_x.py": """\
                import time


                def stamp():
                    return time.perf_counter()
                """
            },
        )
        assert result.ok, result.render_text()


# ---------------------------------------------------------------------- #
# RL003 — exact-int regions
# ---------------------------------------------------------------------- #
class TestExactInt:
    def test_float_literal_in_marked_def_fails(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/fixedpoint/kern.py": """\
                # reprolint: exact-int
                def decay(raw):
                    return raw * 0.5
                """
            },
        )
        assert rules_hit(result) == ["RL003"]
        assert "float literal" in result.violations[0].message

    def test_true_division_in_marked_def_fails(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/fixedpoint/kern.py": """\
                def scale(raw):  # reprolint: exact-int
                    return raw / 4
                """
            },
        )
        assert rules_hit(result) == ["RL003"]
        assert "division" in result.violations[0].message

    def test_astype_float_in_marked_class_fails(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/fixedpoint/kern.py": """\
                import numpy as np


                # reprolint: exact-int
                class Kernel:
                    def widen(self, raw):
                        return raw.astype(np.float64)
                """
            },
        )
        assert rules_hit(result) == ["RL003"]

    def test_integer_only_marked_def_passes(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/fixedpoint/kern.py": """\
                # reprolint: exact-int
                def decay(raw, shift):
                    return (raw * 3) >> shift
                """
            },
        )
        assert result.ok, result.render_text()

    def test_unmarked_float_code_passes(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/fixedpoint/boundary.py": """\
                def quantize(value):
                    return value * 0.5 / 3.0
                """
            },
        )
        assert result.ok, result.render_text()

    def test_file_marker_covers_whole_module(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/fixedpoint/kern.py": """\
                # reprolint: exact-int-file
                HALF = 0.5
                """
            },
        )
        assert rules_hit(result) == ["RL003"]

    def test_dangling_marker_is_flagged(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/fixedpoint/kern.py": """\
                # reprolint: exact-int

                X = 1


                def later():
                    return X
                """
            },
        )
        assert rules_hit(result) == ["RL003"]
        assert "dangling" in result.violations[0].message


# ---------------------------------------------------------------------- #
# RL004 — crash safety
# ---------------------------------------------------------------------- #
class TestCrashSafety:
    def test_bare_write_open_in_durable_module_fails(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/checkpoint.py": """\
                def save(path, payload):
                    with open(path, "wb") as handle:
                        handle.write(payload)
                """
            },
        )
        assert rules_hit(result) == ["RL004"]
        assert "torn file" in result.violations[0].message

    def test_path_write_text_in_durable_module_fails(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/serve/journal.py": """\
                def save(path, payload):
                    path.write_text(payload)
                """
            },
        )
        assert rules_hit(result) == ["RL004"]

    def test_append_mode_in_durable_module_passes(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/serve/journal.py": """\
                def append(path, record):
                    with open(path, "ab") as handle:
                        handle.write(record)
                """
            },
        )
        assert result.ok, result.render_text()

    def test_write_open_outside_durable_modules_passes(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/report.py": """\
                def dump(path, text):
                    with open(path, "w") as handle:
                        handle.write(text)
                """
            },
        )
        assert result.ok, result.render_text()

    def test_ungated_os_exit_fails(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/serve/svc.py": """\
                import os


                def die():
                    os._exit(1)
                """
            },
        )
        assert rules_hit(result) == ["RL004"]
        assert "os._exit" in result.violations[0].message

    def test_faultplan_gated_os_exit_passes(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/serve/svc.py": """\
                import os


                def crash(plan):
                    os._exit(plan.CRASH_EXIT_CODE)
                """
            },
        )
        assert result.ok, result.render_text()


# ---------------------------------------------------------------------- #
# RL005 — worker hygiene
# ---------------------------------------------------------------------- #
class TestWorkerHygiene:
    def test_lambda_task_fn_fails(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/uses_sweep.py": """\
                def run(executor):
                    return executor.sweep(SweepSpec(fn=lambda task: task.params))
                """
            },
        )
        assert rules_hit(result) == ["RL005"]
        assert "lambda" in result.violations[0].message

    def test_nested_def_task_fn_fails(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/uses_sweep.py": """\
                def build_spec():
                    def task(t):
                        return t.params

                    return SweepSpec(fn=task)
                """
            },
        )
        assert rules_hit(result) == ["RL005"]
        assert "closures" in result.violations[0].message

    def test_task_fn_mutating_module_global_fails(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/uses_sweep.py": """\
                RESULTS = {}


                def task(t):
                    RESULTS[t.index] = t.params
                    return t.params


                SPEC = SweepSpec(fn=task)
                """
            },
        )
        assert rules_hit(result) == ["RL005"]
        assert "mutates module-level" in result.violations[0].message

    def test_global_statement_in_task_fn_fails(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/uses_sweep.py": """\
                COUNT = 0


                def task(t):
                    global COUNT
                    COUNT = COUNT + 1
                    return t.params


                SPEC = SweepSpec(fn=task)
                """
            },
        )
        assert "RL005" in rules_hit(result)

    def test_pure_module_level_task_fn_passes(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/uses_sweep.py": """\
                def task(t):
                    params = dict(t.params)
                    params["answer"] = 42
                    return params


                SPEC = SweepSpec(fn=task)
                """
            },
        )
        assert result.ok, result.render_text()

    def test_unrelated_run_calls_do_not_trip_the_rule(self, tmp_path):
        result = lint(
            tmp_path,
            {
                "src/repro/runtime/uses_sweep.py": """\
                def start(service, request):
                    return service.run(request)
                """
            },
        )
        assert result.ok, result.render_text()


# ---------------------------------------------------------------------- #
# Self-check and CLI: the real tree is clean
# ---------------------------------------------------------------------- #
class TestRealTree:
    def test_real_tree_is_clean(self):
        config = ReprolintConfig()
        result = run_reprolint(REPO_ROOT, ("src", "tools", "benchmarks"), config)
        assert result.ok, result.render_text()
        assert result.files_checked > 50

    def test_cli_clean_exit_and_json_report(self, tmp_path):
        report = tmp_path / "reprolint.json"
        proc = subprocess.run(
            [sys.executable, "-m", "tools.reprolint", "--json-report", str(report), "src"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(report.read_text())
        assert payload["tool"] == "reprolint"
        assert payload["violations"] == []

    def test_cli_exit_one_on_synthetic_violation(self, tmp_path):
        # RL005 applies everywhere, so an absolute-path root outside the
        # repo still demonstrates the non-zero exit contract end to end.
        bad = tmp_path / "bad_sweep.py"
        bad.write_text("SPEC = SweepSpec(fn=lambda task: task.params)\n")
        proc = subprocess.run(
            [sys.executable, "-m", "tools.reprolint", str(bad)],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "RL005" in proc.stdout

    def test_cli_list_rules(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.reprolint", "--list-rules"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005"):
            assert rule_id in proc.stdout

    @pytest.mark.parametrize(
        "snippet, rule",
        [
            ("from repro.csp import solver\n", "RL001"),
            ("s = seed + 1\n", "RL002"),
            ("# reprolint: exact-int\ndef f(x):\n    return x * 0.5\n", "RL003"),
            ("import os\n\n\ndef die():\n    os._exit(3)\n", "RL004"),
            ("SPEC = SweepSpec(fn=lambda t: t)\n", "RL005"),
        ],
    )
    def test_each_rule_fires_on_synthetic_violation(self, tmp_path, snippet, rule):
        rel = (
            "src/repro/runtime/checkpoint.py"
            if rule == "RL004"
            else "src/repro/runtime/synthetic.py"
        )
        result = lint(tmp_path, {rel: snippet})
        assert rule in rules_hit(result), result.render_text()
