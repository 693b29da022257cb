#!/usr/bin/env python3
"""Self-tests for ppscan_lint: every rule must fire on its known-bad snippet
and stay silent on the known-good set.

Runs the real engine with the real discipline definitions from
atomics_protocol.toml, re-scoped onto tools/lint/testdata. Exit 0 iff all
tests pass, so `ctest -L lint` can gate on it directly.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import pathlib
import re
import sys
import unittest

LINT_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = LINT_DIR.parent.parent
GOOD = "tools/lint/testdata/good"
BAD = "tools/lint/testdata/bad"

spec = importlib.util.spec_from_file_location(
    "ppscan_lint", LINT_DIR / "ppscan_lint.py")
ppscan_lint = importlib.util.module_from_spec(spec)
sys.modules["ppscan_lint"] = ppscan_lint
spec.loader.exec_module(ppscan_lint)


# The disciplines the known-good tree annotates; the protocol-stale rule
# flags any other discipline left in a config scoped to that tree.
GOOD_DISCIPLINES = ("relaxed-counter", "release-acquire")


def scoped_config(paths, *, docs_file=None, required_asserts=(),
                  disciplines=None):
    """The shipped config with every rule's scope rewritten to `paths`, and
    its disciplines cut down to `disciplines` when given."""
    cfg = ppscan_lint.load_config(LINT_DIR / "atomics_protocol.toml")
    banned = [dict(rule, paths=list(paths)) for rule in cfg.banned]
    if disciplines is not None:
        cfg = dataclasses.replace(cfg, disciplines={
            name: cfg.disciplines[name] for name in disciplines})
    return dataclasses.replace(
        cfg,
        protocol_paths=list(paths),
        narrowing_paths=list(paths),
        exclude_paths=[],
        banned=banned,
        docs_file=docs_file,
        required_asserts=list(required_asserts),
        trace_hotpath_paths=list(paths),
    )


def lint(paths, **kwargs):
    check_docs = kwargs.get("docs_file") is not None
    cfg = scoped_config(paths, **kwargs)
    return ppscan_lint.run_lint(cfg, REPO_ROOT, check_docs_table=check_docs)


def rules_in(findings, path_suffix):
    return sorted({f.rule for f in findings if f.path.endswith(path_suffix)})


class KnownGoodTest(unittest.TestCase):
    def test_good_tree_is_silent(self):
        findings = lint([GOOD], docs_file=f"{GOOD}/docs_table.md",
                        disciplines=GOOD_DISCIPLINES,
                        required_asserts=[{
                            "file": f"{GOOD}/has_assert.cpp",
                            "function": "mirror_arc",
                            "pattern":
                                r"assert\(\s*!ordered\s*\|\|\s*u\s*<\s*v\s*\)",
                            "reason": "order-constraint assert required",
                        }])
        self.assertEqual([], [str(f) for f in findings])


class KnownBadTest(unittest.TestCase):
    def setUp(self):
        self.findings = lint([BAD])

    def test_protocol_missing_fires(self):
        self.assertIn("protocol-missing",
                      rules_in(self.findings, "missing_annotation.hpp"))

    def test_protocol_unknown_fires(self):
        self.assertIn("protocol-unknown",
                      rules_in(self.findings, "unknown_protocol.hpp"))

    def test_protocol_ambiguous_fires(self):
        self.assertIn("protocol-ambiguous",
                      rules_in(self.findings, "ambiguous.hpp"))

    def test_protocol_order_fires_per_site(self):
        hits = [f for f in self.findings
                if f.path.endswith("order_mismatch.hpp")
                and f.rule == "protocol-order"]
        messages = "\n".join(f.message for f in hits)
        # Three distinct violations: release rmw, defaulted seq_cst load,
        # and an over-strong CAS failure order.
        self.assertGreaterEqual(len(hits), 3, messages)
        self.assertIn("fetch_add", messages)
        self.assertIn("load", messages)
        self.assertIn("cas-failure", messages)

    def test_banned_api_fires_for_each_api(self):
        hits = [f for f in self.findings
                if f.path.endswith("banned_api.cpp") and f.rule == "banned-api"]
        self.assertGreaterEqual(len(hits), 3,
                                "\n".join(str(f) for f in hits))

    def test_vertexid_narrowing_fires(self):
        self.assertIn("vertexid-narrowing",
                      rules_in(self.findings, "narrowing.cpp"))

    def test_trace_hotpath_fires(self):
        # The fixture plants one PPSCAN_TRACE_* use and one
        # PPSCAN_FAULT_POINT use; both must fire (macro *definitions* in
        # the same file must not).
        hits = [f for f in self.findings
                if f.path.endswith("trace_hotpath.cpp")
                and f.rule == "trace-hotpath"]
        self.assertEqual(len(hits), 2,
                         "\n".join(str(f) for f in hits))

    def test_order_assert_fires_when_missing(self):
        findings = lint([BAD], required_asserts=[{
            "file": f"{BAD}/missing_assert.cpp",
            "function": "mirror_arc",
            "pattern": r"assert\(\s*!ordered\s*\|\|\s*u\s*<\s*v\s*\)",
            "reason": "order-constraint assert required",
        }])
        self.assertIn("order-assert",
                      rules_in(findings, "missing_assert.cpp"))

    def test_protocol_docs_fires_when_member_undocumented(self):
        # Point the docs check at a table that lacks the bad tree's members.
        findings = lint([BAD], docs_file=f"{GOOD}/docs_table.md")
        self.assertIn("protocol-docs", {f.rule for f in findings})

    def test_protocol_stale_fires_for_row_without_member(self):
        findings = lint([GOOD], docs_file=f"{BAD}/stale_docs_table.md",
                        disciplines=GOOD_DISCIPLINES)
        hits = [f for f in findings if f.rule == "protocol-stale"]
        self.assertEqual(1, len(hits), "\n".join(str(f) for f in findings))
        self.assertTrue(hits[0].path.endswith("stale_docs_table.md"))
        self.assertIn("`ghost_`", hits[0].message)

    def test_protocol_stale_fires_for_unnamed_discipline(self):
        findings = lint([GOOD], docs_file=f"{GOOD}/docs_table.md",
                        disciplines=GOOD_DISCIPLINES + ("cancel-token",))
        hits = [f for f in findings if f.rule == "protocol-stale"]
        self.assertEqual(1, len(hits), "\n".join(str(f) for f in findings))
        self.assertEqual("tools/lint/atomics_protocol.toml", hits[0].path)
        self.assertIn("'cancel-token'", hits[0].message)


class WaiverTest(unittest.TestCase):
    def test_lint_ok_waives_a_single_site(self):
        waived = REPO_ROOT / GOOD / "_waived_tmp.hpp"
        waived.write_text(
            "#pragma once\n#include <atomic>\n"
            "namespace ppscan {\nstruct W {\n"
            "  std::atomic<int> x_{0};  // lint-ok: protocol-missing\n"
            "};\n}  // namespace ppscan\n",
            encoding="utf-8")
        try:
            findings = lint([GOOD])
            self.assertEqual([], rules_in(findings, "_waived_tmp.hpp"))
        finally:
            waived.unlink()


def lock_sources_for(paths):
    sources = {}
    for rel in paths:
        base = REPO_ROOT / rel
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for p in files:
            if p.suffix in ppscan_lint.SOURCE_SUFFIXES:
                src = ppscan_lint.load_source(p, REPO_ROOT)
                sources[src.path] = src
    return sources


def lock_lint(paths, locks, *, docs_file=None, hotpath_paths=(),
              hotpath_functions=()):
    """Run only the lock pass, with a synthetic lock table."""
    cfg = ppscan_lint.LockConfig(
        paths=list(paths), exclude_paths=[], docs_file=docs_file,
        locks={name: ppscan_lint.LockSpec(name, level, "")
               for name, level in locks.items()},
        hotpath_paths=list(hotpath_paths),
        hotpath_functions=list(hotpath_functions),
        call_aliases={})
    return ppscan_lint.run_lock_lint(cfg, lock_sources_for(paths), REPO_ROOT,
                                     check_docs_table=docs_file is not None)


BAD_LOCKS = {"bad_outer_mu": 10, "bad_inner_mu": 20, "dup_mu_": 30,
             "unannotated_mu_": 30, "hot_mu_": 40}


class LockKnownGoodTest(unittest.TestCase):
    def test_good_locks_are_silent(self):
        findings = lock_lint([f"{GOOD}/locks.hpp"],
                             {"good_outer_mu": 10, "good_inner_mu": 20},
                             docs_file=f"{GOOD}/lock_docs.md")
        self.assertEqual([], [str(f) for f in findings])


class LockKnownBadTest(unittest.TestCase):
    def setUp(self):
        self.findings = lock_lint([BAD], BAD_LOCKS)

    def test_lock_raw_fires(self):
        hits = [f for f in self.findings
                if f.path.endswith("raw_mutex.hpp") and f.rule == "lock-raw"]
        # The std::mutex member plus the lock_guard line (which names both
        # std::lock_guard and std::mutex).
        self.assertGreaterEqual(len(hits), 3,
                                "\n".join(str(f) for f in hits))

    def test_lock_unannotated_fires(self):
        hits = [f for f in self.findings if f.rule == "lock-unannotated"]
        self.assertEqual(["unannotated_mu_"],
                         sorted(re.search(r"'(\w+)'", f.message).group(1)
                                for f in hits))

    def test_lock_undeclared_fires(self):
        self.assertIn("lock-undeclared",
                      rules_in(self.findings, "raw_mutex.hpp"))

    def test_lock_undeclared_fires_for_vanished_decl(self):
        findings = lock_lint([BAD], dict(BAD_LOCKS, ghost_mu=60))
        hits = [f for f in findings if f.rule == "lock-undeclared"
                and "ghost_mu" in f.message]
        self.assertEqual(1, len(hits))

    def test_lock_ambiguous_fires(self):
        self.assertIn("lock-ambiguous",
                      rules_in(self.findings, "lock_ambiguous.hpp"))

    def test_lock_order_fires_per_shape(self):
        hits = [f for f in self.findings
                if f.path.endswith("lock_order.hpp")
                and f.rule == "lock-order"]
        messages = "\n".join(f.message for f in hits)
        self.assertGreaterEqual(len(hits), 3, messages)
        self.assertIn("nested acquisition", messages)  # lexical inversion
        self.assertIn("call to helper_locks_outer()", messages)  # via closure
        self.assertIn("self-deadlocks", messages)  # non-recursive reacquire

    def test_lock_hotpath_fires_for_path_and_function(self):
        findings = lock_lint(
            [BAD], BAD_LOCKS,
            hotpath_paths=[f"{BAD}/hotpath_mutex.cpp"],
            hotpath_functions=[{"file": f"{BAD}/hotpath_mutex.cpp",
                                "functions": ["claim_fast"]}])
        hits = [f for f in findings if f.rule == "lock-hotpath"]
        messages = "\n".join(f.message for f in hits)
        self.assertIn("lock-free hot path", messages)  # path-scoped tokens
        self.assertIn("claim_fast", messages)  # function-scoped acquisition

    def test_lock_docs_fires_when_mutex_undocumented(self):
        findings = lock_lint([BAD], BAD_LOCKS,
                             docs_file=f"{GOOD}/lock_docs.md")
        self.assertIn("lock-docs", {f.rule for f in findings})


class LockWaiverTest(unittest.TestCase):
    def test_lint_ok_waives_a_single_site(self):
        waived = REPO_ROOT / GOOD / "_waived_lock_tmp.hpp"
        waived.write_text(
            "#pragma once\n#include <mutex>\n"
            "namespace ppscan_lint_testdata {\nstruct W {\n"
            "  std::mutex special_mu_;  // lint-ok: lock-raw\n"
            "};\n}  // namespace ppscan_lint_testdata\n",
            encoding="utf-8")
        try:
            findings = lock_lint([GOOD], {"good_outer_mu": 10,
                                          "good_inner_mu": 20})
            self.assertEqual([], rules_in(findings, "_waived_lock_tmp.hpp"))
        finally:
            waived.unlink()


class RepoTreeTest(unittest.TestCase):
    def test_shipped_tree_is_clean(self):
        cfg = ppscan_lint.load_config(LINT_DIR / "atomics_protocol.toml")
        findings = ppscan_lint.run_lint(cfg, REPO_ROOT, check_docs_table=True)
        self.assertEqual([], [str(f) for f in findings])

    def test_shipped_tree_is_clean_with_lock_pass(self):
        cfg = ppscan_lint.load_config(LINT_DIR / "atomics_protocol.toml")
        lock_cfg = ppscan_lint.load_lock_config(
            LINT_DIR / "lock_protocol.toml")
        findings = ppscan_lint.run_lint(cfg, REPO_ROOT, check_docs_table=True,
                                        lock_cfg=lock_cfg)
        self.assertEqual([], [str(f) for f in findings])


if __name__ == "__main__":
    sys.exit(unittest.main(verbosity=2))
