"""Layer-2 lint engine tests: each rule, suppressions, reporters."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.staticcheck import lint_paths, lint_source_tree
from repro.staticcheck.__main__ import _known_rule_keys
from repro.staticcheck.cfg_checks import CFG_RULES
from repro.staticcheck.engine import ENGINE_RULES, LintEngine, ParsedModule, parse_paths
from repro.staticcheck.findings import (
    Finding,
    Severity,
    exit_code,
    render_json,
    render_text,
    sort_findings,
)
from repro.staticcheck.plan_checks import PLAN_RULES
from repro.staticcheck.rules import LINT_RULES, default_rules
from repro.staticcheck.service_checks import SERVICE_RULES


def lint_snippet(tmp_path: Path, source: str, name: str = "mod.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return lint_paths([path], root=tmp_path)


def rules_of(findings):
    return {f.rule for f in findings}


class TestDeterminismRules:
    def test_l101_random_import(self, tmp_path):
        findings = lint_snippet(tmp_path, "import random\nprint(random)\n")
        assert rules_of(findings) == {"L101"}

    def test_l101_from_import_and_uuid(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "from random import choice\nimport uuid\nprint(choice, uuid)\n"
        )
        assert [f.rule for f in findings] == ["L101", "L101"]

    def test_l101_allowed_in_rng_home(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "import random\nprint(random)\n", name="workloads/rng.py"
        )
        assert findings == []

    def test_l102_wallclock(self, tmp_path):
        src = "import time\n\ndef f():\n    return time.time()\n"
        findings = lint_snippet(tmp_path, src)
        assert rules_of(findings) == {"L102"}
        assert findings[0].line == 4

    def test_l102_sleep_allowed(self, tmp_path):
        findings = lint_snippet(tmp_path, "import time\ntime.sleep(1)\n")
        assert findings == []

    def test_l102_allowed_in_bench_clock(self, tmp_path):
        src = "import time\n\ndef now():\n    return time.perf_counter()\n"
        findings = lint_snippet(tmp_path, src, name="bench/clock.py")
        assert findings == []

    def test_l102_flagged_elsewhere_in_bench(self, tmp_path):
        # Only the clock module is allowlisted; the rest of the bench
        # package must route timing through it.
        src = "import time\n\ndef t():\n    return time.perf_counter()\n"
        findings = lint_snippet(tmp_path, src, name="bench/harness.py")
        assert rules_of(findings) == {"L102"}

    def test_l103_for_over_set(self, tmp_path):
        src = "out = []\nfor x in set([3, 1, 2]):\n    out.append(x)\n"
        findings = lint_snippet(tmp_path, src)
        assert rules_of(findings) == {"L103"}

    def test_l103_sorted_set_allowed(self, tmp_path):
        src = "out = []\nfor x in sorted(set([3, 1, 2])):\n    out.append(x)\n"
        assert lint_snippet(tmp_path, src) == []

    def test_l103_order_insensitive_reducer_allowed(self, tmp_path):
        src = "total = sum(x for x in set([1, 2]))\nn = len(set([1, 2]))\n"
        assert lint_snippet(tmp_path, src) == []

    def test_l103_set_comprehension_result_allowed(self, tmp_path):
        # A set built from a set is still unordered: no order leaks.
        src = "evens = {x for x in set([1, 2, 3]) if x % 2 == 0}\n"
        assert lint_snippet(tmp_path, src) == []

    def test_l103_list_comprehension_flagged(self, tmp_path):
        src = "ordered = [x for x in set([1, 2, 3])]\n"
        assert rules_of(lint_snippet(tmp_path, src)) == {"L103"}


class TestEnvironmentRule:
    def test_l104_environ_get(self, tmp_path):
        src = "import os\nv = os.environ.get('X')\n"
        assert rules_of(lint_snippet(tmp_path, src)) == {"L104"}

    def test_l104_getenv_and_subscript(self, tmp_path):
        src = "import os\na = os.getenv('X')\nb = os.environ['X']\n"
        findings = lint_snippet(tmp_path, src)
        assert [f.rule for f in findings] == ["L104", "L104"]

    def test_l104_write_allowed(self, tmp_path):
        src = "import os\nos.environ['X'] = '1'\n"
        assert lint_snippet(tmp_path, src) == []

    def test_l104_allowed_in_config(self, tmp_path):
        src = "import os\nv = os.environ.get('X')\n"
        assert lint_snippet(tmp_path, src, name="repro/config.py") == []


class TestExceptionRule:
    def test_l105_broad_except(self, tmp_path):
        src = "try:\n    pass\nexcept Exception:\n    x = 1\n"
        findings = lint_snippet(tmp_path, src)
        assert rules_of(findings) == {"L105"}

    def test_l105_bare_except(self, tmp_path):
        src = "try:\n    pass\nexcept:\n    x = 1\n"
        assert rules_of(lint_snippet(tmp_path, src)) == {"L105"}

    def test_l105_reraise_allowed(self, tmp_path):
        src = "try:\n    pass\nexcept Exception:\n    raise\n"
        assert lint_snippet(tmp_path, src) == []

    def test_l105_narrow_rescue_allows_broad_fallback(self, tmp_path):
        src = (
            "try:\n"
            "    pass\n"
            "except InvariantViolation:\n"
            "    raise\n"
            "except Exception:\n"
            "    x = 1\n"
        )
        assert lint_snippet(tmp_path, src) == []

    def test_l105_narrow_types_allowed(self, tmp_path):
        src = "try:\n    pass\nexcept (OSError, RuntimeError):\n    x = 1\n"
        assert lint_snippet(tmp_path, src) == []


class TestHygieneRule:
    def test_l106_mutable_defaults(self, tmp_path):
        src = "def f(a=[], b={}, c=set()):\n    return a, b, c\n"
        findings = lint_snippet(tmp_path, src)
        assert [f.rule for f in findings] == ["L106", "L106", "L106"]

    def test_l106_safe_defaults(self, tmp_path):
        src = "def f(a=None, b=(), c=0, d='x'):\n    return a, b, c, d\n"
        assert lint_snippet(tmp_path, src) == []

    def test_l108_json_dump(self, tmp_path):
        src = (
            "import json\n"
            "def save(data, fh):\n"
            "    json.dump(data, fh)\n"
            "    json.dump(data, fh, indent=None)\n"
        )
        findings = lint_snippet(tmp_path, src)
        assert [(f.rule, f.line) for f in findings] == [("L108", 3), ("L108", 4)]
        assert "pure-Python encoder" in findings[0].message

    def test_l109_unused_import(self, tmp_path):
        src = (
            "import itertools\n"
            "import os.path\n"
            "from typing import Dict, List\n"
            "from .b import helper as h\n"
            "def f(x: List[int]) -> None:\n"
            "    return os.path.join(x)\n"
        )
        findings = lint_snippet(tmp_path, src)
        assert [(f.rule, f.line) for f in findings] == [
            ("L109", 1), ("L109", 3), ("L109", 4)
        ]
        assert ["'itertools'", "'Dict'", "'h'"] == [
            f.message.split()[0] for f in findings
        ]

    def test_l109_exempts_reexports_and_string_annotations(self, tmp_path):
        src = "from .a import x, y\n__all__ = ['x']\n"
        assert rules_of(lint_snippet(tmp_path, src)) == {"L109"}
        assert lint_snippet(tmp_path, src, name="pkg/__init__.py") == []
        src = (
            "from __future__ import annotations\n"
            "from typing import TYPE_CHECKING, Optional\n"
            "if TYPE_CHECKING:\n"
            "    from .c import Settings\n"
            "def f(s: Optional['Settings'] = None) -> None:\n"
            "    return s\n"
        )
        assert lint_snippet(tmp_path, src) == []

    def test_l108_dumps_and_indented_dump_allowed(self, tmp_path):
        # Indented output runs the pure-Python encoder whichever call
        # writes it, so only un-indented json.dump is a finding.
        src = (
            "import json\n"
            "def save(data, fh):\n"
            "    fh.write(json.dumps(data))\n"
            "    json.dump(data, fh, indent=2, sort_keys=True)\n"
        )
        assert lint_snippet(tmp_path, src) == []


class TestSanitizeCoverageRule:
    def test_l107_frontend_class_without_hook(self, tmp_path):
        src = "class NewBuffer:\n    def insert(self):\n        pass\n"
        findings = lint_snippet(tmp_path, src, name="repro/frontend/newbuf.py")
        assert rules_of(findings) == {"L107"}
        assert findings[0].severity is Severity.WARNING

    def test_l107_hook_present(self, tmp_path):
        src = (
            "class NewBuffer:\n"
            "    def attach_sanitizer(self, s):\n"
            "        pass\n"
        )
        assert lint_snippet(tmp_path, src, name="repro/frontend/newbuf.py") == []

    def test_l107_private_and_dataclass_exempt(self, tmp_path):
        src = (
            "from dataclasses import dataclass\n"
            "class _Helper:\n"
            "    pass\n"
            "@dataclass\n"
            "class Entry:\n"
            "    pc: int = 0\n"
        )
        assert lint_snippet(tmp_path, src, name="repro/frontend/newbuf.py") == []

    def test_l107_outside_frontend_ignored(self, tmp_path):
        src = "class NotHardware:\n    pass\n"
        assert lint_snippet(tmp_path, src, name="repro/analysis/x.py") == []

    def test_l107_drift_to_dict_without_from_dict(self, tmp_path):
        src = (
            "class Tracker:\n"
            "    def to_dict(self):\n"
            "        return {}\n"
        )
        for scope in ("repro/drift/x.py", "repro/service/x.py"):
            findings = lint_snippet(tmp_path, src, name=scope)
            assert rules_of(findings) == {"L107"}, scope
            assert "from_dict" in findings[0].message

    def test_l107_drift_from_dict_without_to_dict(self, tmp_path):
        src = (
            "class Tracker:\n"
            "    @classmethod\n"
            "    def from_dict(cls, payload):\n"
            "        return cls()\n"
        )
        findings = lint_snippet(tmp_path, src, name="repro/drift/x.py")
        assert rules_of(findings) == {"L107"}

    def test_l107_drift_matched_pair_and_stateless_clean(self, tmp_path):
        src = (
            "class Tracker:\n"
            "    def to_dict(self):\n"
            "        return {}\n"
            "    @classmethod\n"
            "    def from_dict(cls, payload):\n"
            "        return cls()\n"
            "class Stateless:\n"
            "    def score(self):\n"
            "        return 0\n"
        )
        assert lint_snippet(tmp_path, src, name="repro/drift/x.py") == []

    def test_l107_drift_dataclass_not_exempt(self, tmp_path):
        # Unlike the frontend hook check, a dataclass hand-rolling one
        # serialization half is still unrestorable.
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class State:\n"
            "    x: int = 0\n"
            "    def to_dict(self):\n"
            "        return {'x': self.x}\n"
        )
        findings = lint_snippet(tmp_path, src, name="repro/service/x.py")
        assert rules_of(findings) == {"L107"}

    def test_l107_drift_no_sanitizer_requirement(self, tmp_path):
        # attach_sanitizer is a frontend notion; drift classes never
        # need it.
        src = "class Controller:\n    def step(self):\n        pass\n"
        assert lint_snippet(tmp_path, src, name="repro/drift/x.py") == []


class TestSuppressions:
    def test_line_suppression_by_id(self, tmp_path):
        src = "import random  # staticcheck: disable=L101\nprint(random)\n"
        assert lint_snippet(tmp_path, src) == []

    def test_line_suppression_by_name(self, tmp_path):
        src = "import random  # staticcheck: disable=no-ambient-rng\nprint(random)\n"
        assert lint_snippet(tmp_path, src) == []

    def test_line_suppression_is_per_rule(self, tmp_path):
        # Suppressing one rule does not blanket the line.
        src = "import random  # staticcheck: disable=L104\nprint(random)\n"
        assert rules_of(lint_snippet(tmp_path, src)) == {"L101"}

    def test_line_suppression_multiple_rules(self, tmp_path):
        src = (
            "import random, uuid  # staticcheck: disable=L101,L104\n"
            "print(random, uuid)\n"
        )
        assert lint_snippet(tmp_path, src) == []

    def test_file_suppression(self, tmp_path):
        src = (
            "# staticcheck: disable-file=L101\n"
            "import random\n"
            "from random import choice\n"
            "print(random, choice)\n"
        )
        assert lint_snippet(tmp_path, src) == []

    def test_wrong_line_does_not_suppress(self, tmp_path):
        src = "# staticcheck: disable=L101\nimport random\nprint(random)\n"
        assert rules_of(lint_snippet(tmp_path, src)) == {"L101"}


class TestReporters:
    def _findings(self):
        return [
            Finding("L101", "no-ambient-rng", Severity.ERROR, "a.py", "boom", line=3),
            Finding("P107", "timeliness", Severity.WARNING, "plan[x]", "late"),
        ]

    def test_sort_errors_first(self):
        ordered = sort_findings(list(reversed(self._findings())))
        assert [f.rule for f in ordered] == ["L101", "P107"]

    def test_exit_code_gating(self):
        findings = self._findings()
        assert exit_code(findings) == 1
        assert exit_code([findings[1]]) == 0
        assert exit_code([findings[1]], strict=True) == 1
        assert exit_code([]) == 0

    def test_render_text_summarizes_warnings(self):
        text = render_text(self._findings())
        assert "a.py:3" in text
        assert "x1" in text  # warning folded into a count line
        assert "1 error(s), 1 warning(s)" in text

    def test_render_json_schema(self):
        doc = json.loads(render_json(self._findings(), extra={"strict": False}))
        assert doc["counts"] == {"error": 1, "warning": 1, "info": 0}
        assert doc["findings"][0]["rule"] == "L101"
        assert doc["strict"] is False


class TestSuppressionEngineEdgeCases:
    def _lint_with_unused(self, tmp_path, source, name="mod.py"):
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        engine = LintEngine()
        modules = parse_paths([path], root=tmp_path)
        findings = engine.lint(modules)
        known = _known_rule_keys()
        return findings, engine.unused_suppression_findings(modules, known)

    def test_unknown_rule_id_has_no_effect_and_is_reported(self, tmp_path):
        src = "import random  # staticcheck: disable=L999\nprint(random)\n"
        findings, unused = self._lint_with_unused(tmp_path, src)
        assert rules_of(findings) == {"L101"}  # bogus token suppresses nothing
        assert [u.rule for u in unused] == ["U101"]
        assert "not a known rule" in unused[0].message
        assert unused[0].line == 1

    def test_mixed_directives_share_one_line(self, tmp_path):
        src = (
            "import random  "
            "# staticcheck: disable=L101  # staticcheck: disable-file=L104\n"
            "import os\n"
            "v = os.getenv('X')\n"
            "print(random)\n"
        )
        findings, unused = self._lint_with_unused(tmp_path, src)
        assert findings == []  # both directives applied
        assert unused == []  # and both matched a finding

    def test_stale_suppression_flagged_live_one_silent(self, tmp_path):
        src = (
            "import random  # staticcheck: disable=L101\n"
            "x = 1  # staticcheck: disable=L106\n"
            "print(random)\n"
        )
        findings, unused = self._lint_with_unused(tmp_path, src)
        assert findings == []
        assert [(u.rule, u.line) for u in unused] == [("U101", 2)]
        assert unused[0].severity is Severity.WARNING
        assert "disable=L106" in unused[0].message

    def test_docstring_examples_are_inert(self, tmp_path):
        # Suppression syntax quoted in a docstring neither suppresses
        # nor registers as an unused site.
        src = (
            '"""Use # staticcheck: disable=L101 to waive."""\n'
            "import random\n"
            "print(random)\n"
        )
        findings, unused = self._lint_with_unused(tmp_path, src)
        assert rules_of(findings) == {"L101"}
        assert unused == []

    def test_layer3_findings_pass_through_suppression_filter(self, tmp_path):
        src = (
            "import time\n\n"
            "async def tick():\n"
            "    time.sleep(0.1)  # staticcheck: disable=A101 (fixture)\n"
        )
        findings, unused = self._lint_with_unused(
            tmp_path, src, name="repro/service/mini.py"
        )
        assert findings == []
        assert unused == []


class TestRuleInventoryPinned:
    """Adding a rule without cataloging + documenting it fails here."""

    def test_catalog_ids(self):
        assert set(PLAN_RULES) == {f"P10{i}" for i in range(1, 9)}
        assert set(CFG_RULES) == {f"C10{i}" for i in range(1, 6)}
        default_rules()
        assert set(LINT_RULES) == {f"L10{i}" for i in range(1, 10)}
        assert set(SERVICE_RULES) == {f"A10{i}" for i in range(1, 7)}
        assert set(ENGINE_RULES) == {"U101"}

    def test_every_rule_documented(self):
        # A new rule must land with user-facing docs: each id appears
        # literally in README.md or DESIGN.md (ranges don't count).
        repo = Path(__file__).resolve().parent.parent
        docs = (repo / "README.md").read_text() + (repo / "DESIGN.md").read_text()
        default_rules()
        for catalog in (PLAN_RULES, CFG_RULES, LINT_RULES, SERVICE_RULES, ENGINE_RULES):
            for rule in catalog:
                assert rule in docs, f"{rule} missing from README.md/DESIGN.md"


class TestRepoIsClean:
    def test_rule_catalog_registered(self):
        rules = default_rules()
        assert {r.rule for r in rules} == set(LINT_RULES)
        assert len(LINT_RULES) == 9

    def test_source_tree_lints_clean(self):
        findings = lint_source_tree()
        assert findings == [], [f"{f.rule} {f.where()}" for f in findings[:5]]
