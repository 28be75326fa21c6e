#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 xicbench/tests.py

Builds the programs like run.py does (into $CARGO_TARGET_DIR or
.bench_build) and checks that the generators are deterministic per seed,
that the verdict checks accept tiny hand-built cases whose violations
are known and reject a document that does not parse, and that a
deliberately wrong expected verdict raises the failure ratio.
"""

import filecmp
import os
import shutil
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
import gen  # noqa: E402
import run  # noqa: E402

ROOT = os.path.dirname(BENCH)
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                        os.path.join(ROOT, ".bench_build"))
BINS = {}


def setUpModule():
    BINS.update(run.build(ROOT, BUILD))


def small(workload, seed, out):
    """Each workload's generator at a size that runs in a moment."""
    if workload == "catalog_bulk":
        return gen.catalog_bulk(seed, out, True, rows=2000)
    if workload == "wide_batch":
        return gen.wide_batch(seed, out, True, docs=6)
    return gen.xicd_mix(seed, out, 1)


def same_tree(a, b):
    compare = filecmp.dircmp(a, b)
    if compare.left_only or compare.right_only or compare.diff_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, compare.common_files,
                                           shallow=False)
    return not mismatch and not errors and all(
        same_tree(os.path.join(a, d), os.path.join(b, d))
        for d in compare.common_dirs)


class BenchTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp(dir=BUILD)
        self.env = dict(os.environ, TMPDIR=self.dir)

    def tearDown(self):
        shutil.rmtree(self.dir)

    def path(self, *parts):
        p = os.path.join(self.dir, *parts)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        return p

    def test_generators_are_deterministic_per_seed(self):
        for workload in run.WORKLOADS:
            dirs = [self.path(workload, name, "") for name in "abc"]
            truths = [small(workload, seed, d)
                      for seed, d in zip((7, 7, 8), dirs)]
            self.assertTrue(same_tree(dirs[0], dirs[1]), workload)
            self.assertEqual(truths[0], truths[1], workload)
            self.assertFalse(same_tree(dirs[0], dirs[2]), workload)

    def xicheck_tally(self, body, expect):
        """Checks one catalog document through every xicheck mode."""
        doc = self.path("hand.xml")
        with open(doc, "w") as f:
            f.write(body)
        tally = run.Tally()
        for mode in run.CATALOG_MODES.values():
            sample = run.run_child([BINS["xicheck"], *mode, doc],
                                   self.path("out.txt"), self.env)
            run.check_xicheck(sample, doc, expect, tally)
        return tally

    def test_hand_built_catalog_matches_its_ground_truth(self):
        # One duplicate isbn, two dangling references.
        tally = self.xicheck_tally(gen.CATALOG_PROLOG + (
            '<catalog><book isbn="a"><title>t</title><ref to="a"/></book>'
            '<book isbn="b"><title>t</title><ref to="a zz"/></book>'
            '<book isbn="a"><title>t</title><ref to="yy"/></book>'
            '</catalog>'), gen.expect(0, 3))
        self.assertEqual((tally.attempted, tally.failed), (3, 0),
                         tally.reasons)
        # Two books without a title and one dangling reference.
        tally = self.xicheck_tally(gen.CATALOG_PROLOG + (
            '<catalog><book isbn="a"><ref to="a"/></book>'
            '<book isbn="b"><ref to="zz"/></book></catalog>'),
            gen.expect(2, 1))
        self.assertEqual((tally.attempted, tally.failed), (3, 0),
                         tally.reasons)

    def test_document_that_does_not_parse_fails_its_check(self):
        tally = self.xicheck_tally(gen.CATALOG_PROLOG + (
            '<catalog><book isbn="a"><title>t</title><ref to="a"/>'
            '</catalog>'), gen.expect(0, 0))
        self.assertEqual((tally.attempted, tally.failed), (3, 3))

        schema = self.path("schema.xml")
        with open(schema, "w") as f:
            f.write(gen.wide_prolog() + "<corpus/>\n")
        doc = self.path("broken.xml")
        with open(doc, "w") as f:
            f.write('<corpus><wide id="x"><f01>1</f01></corpus>')
        report = self.path("report.json")
        truth = {"schema.xml": gen.expect(0, 0),
                 "broken.xml": gen.expect(0, 0)}
        for mode in ([], ["--stream"]):
            tally = run.Tally()
            sample = run.run_child([BINS["xicbatch"], *mode, "--json", report,
                                    schema, doc], self.path("out.txt"),
                                   self.env)
            run.check_batch(sample, report, [(schema, "schema.xml"),
                                             (doc, "broken.xml")],
                            truth, tally)
            # The exit code (1) and the document's verdict (parse_error).
            self.assertEqual((tally.attempted, tally.failed), (3, 2),
                             (mode, tally.reasons))

    def test_hand_built_wide_document_matches_its_ground_truth(self):
        schema = self.path("schema.xml")
        with open(schema, "w") as f:
            f.write(gen.wide_prolog() + "<corpus/>\n")
        doc = self.path("bad.xml")
        with open(doc, "w") as f:  # f02 before f01, and a duplicate id
            f.write('<corpus><wide id="x"><f02>1</f02><f01>2</f01></wide>'
                    '<wide id="x"><f01>3</f01></wide>'
                    '<narrow id="x"><g12>4</g12></narrow></corpus>')
        truth = {"schema.xml": gen.expect(0, 0), "bad.xml": gen.expect(1, 1)}
        report = self.path("report.json")
        tally = run.Tally()
        for mode in ([], ["--stream"]):
            sample = run.run_child([BINS["xicbatch"], *mode, "--json", report,
                                    schema, doc], self.path("out.txt"),
                                   self.env)
            run.check_batch(sample, report, [(schema, "schema.xml"),
                                             (doc, "bad.xml")], truth, tally)
        self.assertEqual((tally.attempted, tally.failed), (6, 0),
                         tally.reasons)

    def test_wrong_expected_verdict_raises_fail_ratio(self):
        work = self.path("catalog", "")
        truth = small("catalog_bulk", 3, work)
        honest = run.Tally()
        run.run_catalog(BINS, work, truth, 0, self.env, honest)
        self.assertEqual(honest.failed, 0, honest.reasons)

        wrong = {"docs": {"catalog.xml": dict(
            truth["docs"]["catalog.xml"],
            constraints=truth["docs"]["catalog.xml"]["constraints"] + 1)}}
        injected = run.Tally()
        run.run_catalog(BINS, work, wrong, 0, self.env, injected)
        self.assertEqual(injected.attempted, honest.attempted)
        self.assertGreater(injected.failed / injected.attempted,
                           honest.failed / honest.attempted)

    def test_xicd_replies_are_checked_against_expectations(self):
        tally = run.Tally()
        body = ('{"documents": [{"name": "d", '
                '"verdict": "constraint_violations", '
                '"constraint_violations": [{"constraint": 0, "message": "m"}]'
                '}]}')
        expect = gen.expect(0, 1, verb="validate")
        self.assertTrue(run.check_response("ok", body, expect, tally))
        self.assertFalse(run.check_response(
            "ok", body, gen.expect(0, 2, verb="validate"), tally))
        self.assertFalse(run.check_response("unavailable", "", expect, tally))
        # xicd answers `ok` for a document that does not parse; only the
        # verdict tells it from a valid one.
        unparsed = '{"documents": [{"name": "d", "verdict": "parse_error"}]}'
        self.assertFalse(run.check_response(
            "ok", unparsed, gen.expect(0, 0, verb="validate"), tally))
        self.assertEqual((tally.attempted, tally.failed), (4, 3))


if __name__ == "__main__":
    unittest.main()
