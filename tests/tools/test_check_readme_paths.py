"""Docs lint: path references and dotted ``repro.…`` names must resolve.

Each case writes a throw-away Markdown file under ``tmp_path`` and runs
the lint on it; the suite ends with the self-check the CI docs-lint job
relies on: the real README and docs lint clean.
"""

import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.check_readme_paths import main  # noqa: E402


def lint(tmp_path, text):
    page = tmp_path / "page.md"
    page.write_text(textwrap.dedent(text))
    return main([str(page)])


@pytest.mark.parametrize(
    "reference",
    [
        pytest.param("`repro.csp.solver.no_such_name`", id="missing-name"),
        pytest.param("`repro.csp.no_such_module`", id="missing-module"),
        pytest.param("`repro.csp.solver.SpikingCSPSolver.no_such_member`", id="missing-member"),
        pytest.param("`repro.csp.solver.solve_instances.no_such_attr`", id="member-of-function"),
        pytest.param("```python\nrepro.csp.solver.no_such_fenced()\n```", id="missing-name-in-fence"),
        pytest.param("`src/repro/csp/no_such_file.py`", id="missing-path"),
    ],
)
def test_unresolved_reference_fails(tmp_path, reference, capsys):
    assert lint(tmp_path, f"See:\n\n{reference}\n") == 1
    assert "no_such" in capsys.readouterr().err


def test_real_references_pass(tmp_path):
    text = """\
    The one-shot solve is `repro.csp.solver.solve_instances`, re-exported
    as `repro.csp.solve_instances`; rows come from
    `repro.csp.solver.SpikingCSPSolver.row` over the connectivity in
    `repro.csp.solver.SpikingCSPSolver.synapses`, and results are
    `repro.csp.solver.CSPSolveResult.attempts`-annotated.  Sources live in
    `src/repro/csp/solver.py`.

    ```python
    from repro.csp.scenarios.sudoku import shared_sudoku_graph
    repro.runtime.batch.BatchedNetwork.retain
    ```

    Prose mentions of repro.anything outside code are not checked.
    """
    assert lint(tmp_path, text) == 0


def test_repository_docs_lint_clean():
    assert main([]) == 0
