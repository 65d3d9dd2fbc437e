"""Tests for reprolint (src/repro/analysis): engine, rules, CLI.

Each rule gets at least one true-positive fixture and one
pragma-suppressed twin; the suite closes with the self-check that the
shipped source tree lints clean — the same gate CI runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    default_rules,
    lint_paths,
    render_rule_table,
    run_lint,
)
from repro.analysis.engine import (
    Finding,
    SourceModule,
    load_project,
    resolve_rules,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(tmp_path: Path, source: str, *, name: str = "mod.py", select=None):
    """Write one fixture module and lint it with the default rules."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return lint_paths([str(path)], select=select)


def rule_ids(report):
    return [finding.rule for finding in report.findings]


# ----------------------------------------------------------------------
# R001 — seed discipline
# ----------------------------------------------------------------------
class TestSeedDiscipline:
    def test_unseeded_default_rng_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import numpy as np\n"
            "def sample():\n"
            "    return np.random.default_rng().random()\n",
            select=["R001"],
        )
        assert rule_ids(report) == ["R001"]
        assert "unseeded" in report.findings[0].message

    def test_seeded_default_rng_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import numpy as np\n"
            "def sample(seed):\n"
            "    return np.random.default_rng(seed)\n",
            select=["R001"],
        )
        assert report.findings == []

    def test_legacy_numpy_global_state_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import numpy as np\n"
            "np.random.seed(0)\n"
            "x = np.random.rand(3)\n",
            select=["R001"],
        )
        assert rule_ids(report) == ["R001", "R001"]

    def test_stdlib_random_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import random\n"
            "def pick(items):\n"
            "    return random.choice(items)\n",
            select=["R001"],
        )
        assert rule_ids(report) == ["R001"]

    def test_from_random_import_flagged(self, tmp_path):
        report = lint_source(
            tmp_path, "from random import shuffle\n", select=["R001"]
        )
        assert rule_ids(report) == ["R001"]

    def test_time_derived_seed_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import time\n"
            "import numpy as np\n"
            "rng = np.random.default_rng(int(time.time()))\n",
            select=["R001"],
        )
        assert rule_ids(report) == ["R001"]
        assert "time-derived" in report.findings[0].message

    def test_rng_module_exempt(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import numpy as np\n"
            "def fresh():\n"
            "    return np.random.default_rng()\n",
            name="rng.py",
            select=["R001"],
        )
        assert report.findings == []

    def test_pragma_suppresses(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import random\n"
            "def pick(items):\n"
            "    return random.choice(items)  # reprolint: disable=R001 - test fixture\n",
            select=["R001"],
        )
        assert report.findings == []
        assert report.suppressed == 1


# ----------------------------------------------------------------------
# R002 — lock-guard discipline
# ----------------------------------------------------------------------
LOCKED_CLASS_BAD = """\
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0  # init writes are exempt

    def bump(self):
        with self._lock:
            self._count += 1

    def reset(self):
        self._count = 0  # unguarded write to a guarded attr
"""

LOCKED_CLASS_GOOD = """\
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def bump(self):
        with self._lock:
            self._count += 1

    def reset(self):
        with self._lock:
            self._count = 0
"""


class TestLockGuard:
    def test_unguarded_write_flagged(self, tmp_path):
        report = lint_source(tmp_path, LOCKED_CLASS_BAD, select=["R002"])
        assert rule_ids(report) == ["R002"]
        assert "_count" in report.findings[0].message

    def test_guarded_class_clean(self, tmp_path):
        report = lint_source(tmp_path, LOCKED_CLASS_GOOD, select=["R002"])
        assert report.findings == []

    def test_container_mutation_counts_as_write(self, tmp_path):
        source = (
            "class Q:\n"
            "    def put(self, item):\n"
            "        with self._cond:\n"
            "            self._items.append(item)\n"
            "    def drop(self):\n"
            "        self._items.clear()\n"
        )
        report = lint_source(tmp_path, source, select=["R002"])
        assert rule_ids(report) == ["R002"]

    def test_pragma_suppresses(self, tmp_path):
        source = LOCKED_CLASS_BAD.replace(
            "self._count = 0  # unguarded write to a guarded attr",
            "self._count = 0  # reprolint: disable=R002 - single-threaded test fixture",
        )
        report = lint_source(tmp_path, source, select=["R002"])
        assert report.findings == []
        assert report.suppressed == 1


# ----------------------------------------------------------------------
# R005 — pickle boundary
# ----------------------------------------------------------------------
class TestPickleBoundary:
    def test_pickle_load_outside_transport_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import pickle\n"
            "def restore(path):\n"
            "    with open(path, \"rb\") as fh:\n"
            "        return pickle.load(fh)\n",
            select=["R005"],
        )
        assert rule_ids(report) == ["R005"]

    def test_from_import_flagged(self, tmp_path):
        report = lint_source(
            tmp_path, "from pickle import loads\n", select=["R005"]
        )
        assert rule_ids(report) == ["R005"]

    def test_transport_module_exempt(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import pickle\n"
            "def decode(data):\n"
            "    return pickle.loads(data)\n",
            name="cluster/transport.py",
            select=["R005"],
        )
        assert report.findings == []

    def test_pickle_dump_is_fine(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import pickle\n"
            "def save(obj, fh):\n"
            "    pickle.dump(obj, fh)\n",
            select=["R005"],
        )
        assert report.findings == []

    def test_pragma_suppresses(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import pickle\n"
            "def restore(fh):\n"
            "    return pickle.load(fh)  # reprolint: disable=R005 - trusted fixture\n",
            select=["R005"],
        )
        assert report.findings == []
        assert report.suppressed == 1


# ----------------------------------------------------------------------
# R006 — __all__ parity
# ----------------------------------------------------------------------
class TestAllParity:
    def test_listed_but_unbound_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def real():\n    pass\n\n__all__ = [\"real\", \"ghost\"]\n",
            select=["R006"],
        )
        assert rule_ids(report) == ["R006"]
        assert "'ghost'" in report.findings[0].message

    def test_public_def_missing_from_all_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def listed():\n    pass\n\n"
            "def forgotten():\n    pass\n\n"
            "__all__ = [\"listed\"]\n",
            select=["R006"],
        )
        assert rule_ids(report) == ["R006"]
        assert "forgotten" in report.findings[0].message

    def test_private_defs_and_imports_ignored(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import os\n"
            "from pathlib import Path\n\n"
            "def _helper():\n    pass\n\n"
            "def public():\n    pass\n\n"
            "__all__ = [\"public\"]\n",
            select=["R006"],
        )
        assert report.findings == []

    def test_duplicate_entry_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def f():\n    pass\n\n__all__ = [\"f\", \"f\"]\n",
            select=["R006"],
        )
        assert rule_ids(report) == ["R006"]
        assert "twice" in report.findings[0].message

    def test_module_without_all_out_of_scope(self, tmp_path):
        report = lint_source(
            tmp_path, "def anything():\n    pass\n", select=["R006"]
        )
        assert report.findings == []

    def test_augmented_all_merges(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def a():\n    pass\n\ndef b():\n    pass\n\n"
            "__all__ = [\"a\"]\n__all__ += [\"b\"]\n",
            select=["R006"],
        )
        assert report.findings == []

    def test_pragma_suppresses(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def real():\n    pass\n\n"
            "__all__ = [\"real\", \"ghost\"]  # reprolint: disable=R006 - fixture\n",
            select=["R006"],
        )
        assert report.findings == []
        assert report.suppressed == 1


# ----------------------------------------------------------------------
# R007 — broad except
# ----------------------------------------------------------------------
class TestBroadExcept:
    def test_except_exception_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            "try:\n    work()\nexcept Exception:\n    pass\n",
            select=["R007"],
        )
        assert rule_ids(report) == ["R007"]

    def test_tuple_with_base_exception_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            "try:\n    work()\nexcept (ValueError, BaseException):\n    pass\n",
            select=["R007"],
        )
        assert rule_ids(report) == ["R007"]

    def test_suppress_exception_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import contextlib\n"
            "with contextlib.suppress(Exception):\n"
            "    work()\n",
            select=["R007"],
        )
        assert rule_ids(report) == ["R007"]

    def test_narrow_except_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import contextlib\n"
            "try:\n    work()\nexcept (OSError, ValueError):\n    pass\n"
            "with contextlib.suppress(KeyError):\n"
            "    work()\n",
            select=["R007"],
        )
        assert report.findings == []

    def test_pragma_suppresses(self, tmp_path):
        report = lint_source(
            tmp_path,
            "try:\n"
            "    work()\n"
            "except Exception:  # reprolint: disable=R007 - fixture teardown\n"
            "    pass\n",
            select=["R007"],
        )
        assert report.findings == []
        assert report.suppressed == 1


# ----------------------------------------------------------------------
# R010 — lock leak
# ----------------------------------------------------------------------
class TestLockLeak:
    def test_bare_acquire_without_finally_flagged(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import threading\n"
            "class Leaky:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def grab(self):\n"
            "        self._lock.acquire()\n"
            "        return work()\n",
            select=["R010"],
        )
        assert rule_ids(report) == ["R010"]

    def test_try_finally_release_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import threading\n"
            "class Careful:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def grab(self):\n"
            "        self._lock.acquire()\n"
            "        try:\n"
            "            return work()\n"
            "        finally:\n"
            "            self._lock.release()\n",
            select=["R010"],
        )
        assert report.findings == []

    def test_with_statement_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import threading\n"
            "class Scoped:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def grab(self):\n"
            "        with self._lock:\n"
            "            return work()\n",
            select=["R010"],
        )
        assert report.findings == []

    def test_pragma_suppresses(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import threading\n"
            "class Leaky:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def grab(self):\n"
            "        self._lock.acquire()"
            "  # reprolint: disable=R010 - released by the consumer thread\n"
            "        return work()\n",
            select=["R010"],
        )
        assert report.findings == []
        assert report.suppressed == 1

    def test_every_function_checked_on_its_own(self, tmp_path):
        """Module-level functions count too, and a nested function's
        ``finally`` does not cover its enclosing function's acquire."""
        report = lint_source(
            tmp_path,
            "def grab(lock):\n"
            "    lock.acquire()\n"
            "    def cleanup():\n"
            "        try:\n"
            "            pass\n"
            "        finally:\n"
            "            lock.release()\n"
            "    return cleanup\n",
            select=["R010"],
        )
        assert rule_ids(report) == ["R010"]
        assert "in grab" in report.findings[0].message


# ----------------------------------------------------------------------
# engine behaviour
# ----------------------------------------------------------------------
class TestEngine:
    def test_file_scope_pragma(self, tmp_path):
        source = (
            "# reprolint: disable-file=R007 - fixture module\n"
            "try:\n    work()\nexcept Exception:\n    pass\n"
            "try:\n    work()\nexcept BaseException:\n    pass\n"
        )
        report = lint_source(tmp_path, source, select=["R007"])
        assert report.findings == []
        assert report.suppressed == 2

    def test_multi_rule_pragma(self, tmp_path):
        source = (
            "import pickle, random\n"
            "import random\n"
            "def f(fh):\n"
            "    return pickle.load(fh), random.random()  # reprolint: disable=R001,R005 - fixture\n"
        )
        report = lint_source(tmp_path, source)
        assert all(f.rule not in ("R001", "R005") for f in report.findings)
        assert report.suppressed == 2

    def test_parse_error_reported_not_raised(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n", encoding="utf-8")
        report = lint_paths([str(path)])
        assert report.findings == []
        assert len(report.parse_errors) == 1
        assert report.parse_errors[0].rule == "PARSE"
        assert report.exit_code == 1

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="R999"):
            resolve_rules(default_rules(), select=["R999"])
        with pytest.raises(ValueError, match="R999"):
            resolve_rules(default_rules(), disable=["R999"])

    def test_select_and_disable_filter(self):
        rules = default_rules()
        assert [r.id for r in resolve_rules(rules, select=["R005"])] == ["R005"]
        remaining = resolve_rules(rules, disable=["R005", "R007"])
        assert "R005" not in [r.id for r in remaining]
        assert len(remaining) == len(rules) - 2

    def test_finding_render_anchors(self):
        finding = Finding("R001", "message", "src/mod.py", 12, 4)
        assert finding.render() == "src/mod.py:12:4: R001 message"

    def test_findings_sorted_by_location(self, tmp_path):
        source = (
            "import random\n"
            "try:\n"
            "    random.random()\n"
            "except Exception:\n"
            "    pass\n"
        )
        report = lint_source(tmp_path, source)
        keys = [f.sort_key for f in report.findings]
        assert keys == sorted(keys)

    def test_source_module_pragma_parsing(self):
        module = SourceModule(
            "x.py",
            "a = 1  # reprolint: disable=R001,R002 - reason text\n"
            "# reprolint: disable-file=R007\n",
        )
        assert module.line_pragmas[1] == {"R001", "R002"}
        assert module.file_pragmas == {"R007"}

    def test_load_project_skips_unreadable_dirs(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        project, errors = load_project([str(tmp_path)])
        assert len(project) == 1
        assert errors == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n", encoding="utf-8")
        assert run_lint([str(path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one_text(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text("from random import shuffle\n", encoding="utf-8")
        assert run_lint([str(path)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out and str(path) in out

    def test_json_format_and_output_file(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text("from random import shuffle\n", encoding="utf-8")
        out_file = tmp_path / "report.json"
        code = run_lint(
            [str(path), "--format", "json", "--output", str(out_file)]
        )
        assert code == 1
        payload = json.loads(out_file.read_text(encoding="utf-8"))
        assert payload["version"] == 1
        assert payload["files_scanned"] == 1
        assert [f["rule"] for f in payload["findings"]] == ["R001"]
        # stdout carries the same document
        assert json.loads(capsys.readouterr().out) == payload

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n", encoding="utf-8")
        assert run_lint([str(path), "--select", "R999"]) == 2
        assert "unknown rule" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert run_lint(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in default_rules():
            assert rule.id in out
        assert render_rule_table() in out

    def test_disable_filters_findings(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("from random import shuffle\n", encoding="utf-8")
        assert run_lint([str(path), "--disable", "R001"]) == 0

    def test_comma_separated_rule_lists(self, tmp_path):
        # same grammar as the pragma: disable=R001,R007
        path = tmp_path / "bad.py"
        path.write_text(
            "from random import shuffle\n"
            "try:\n"
            "    shuffle([])\n"
            "except Exception:\n"
            "    pass\n",
            encoding="utf-8",
        )
        assert run_lint([str(path)]) == 1
        assert run_lint([str(path), "--disable", "R001,R007"]) == 0
        assert run_lint([str(path), "--select", "R001,R007"]) == 1

    def test_main_cli_exposes_lint(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "clean.py"
        path.write_text("x = 1\n", encoding="utf-8")
        assert main(["lint", str(path)]) == 0


# ----------------------------------------------------------------------
# the gate CI runs: the shipped tree lints clean
# ----------------------------------------------------------------------
class TestRepositoryClean:
    def test_src_tree_lints_clean(self):
        report = lint_paths([str(REPO_ROOT / "src")])
        rendered = report.render_text()
        assert report.parse_errors == [], rendered
        assert report.findings == [], rendered
        assert report.exit_code == 0
        assert report.files_scanned > 50

    def test_every_default_rule_ran(self):
        report = lint_paths([str(REPO_ROOT / "src")])
        assert report.rules_run == [rule.id for rule in default_rules()]
