"""The one-shot reproduction report, rendered from a filled cache."""

import pytest

from repro.analysis.cachereport import CacheDataset
from repro.analysis.repro_report import generate_cache_report
from repro.exp import ResultCache, flatten, run_batch, table3_grid


def cached_report(cache_dir, apps, n_processors):
    """Fill *cache_dir* with the apps' Table 3 triples, then render."""
    run_batch(
        flatten(
            table3_grid(apps=apps, n_processors=n_processors, quick=True)
        ),
        cache=ResultCache(cache_dir),
    )
    return generate_cache_report(
        CacheDataset.load(cache_dir),
        apps=apps,
        n_processors=n_processors,
        quick=True,
    )


@pytest.fixture(scope="module")
def report_text(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("report-cache")
    return cached_report(cache_dir, ["ParMult", "IMatMult"], 3).document


class TestGenerateReport:
    def test_has_every_section(self, report_text):
        for heading in (
            "# Reproduction report",
            "## Section 2.2",
            "### Table 1",
            "### Table 2",
            "## Table 3",
            "## Table 4",
            "## Figure 1",
            "## Figure 2",
        ):
            assert heading in report_text

    def test_embeds_the_protocol_cells(self, report_text):
        assert "sync&flush other" in report_text
        assert "copy to local" in report_text

    def test_embeds_the_latency_check(self, report_text):
        assert "G/L fetch 2.31" in report_text

    def test_embeds_the_evaluation(self, report_text):
        assert "IMatMult" in report_text
        assert "α(paper)" in report_text

    def test_names_the_paper(self, report_text):
        assert "Bolosky" in report_text
        assert "SOSP '89" in report_text

    def test_write_report(self, tmp_path):
        bundle = cached_report(tmp_path / "cache", ["ParMult"], 2)
        path = tmp_path / "REPORT.md"
        path.write_text(bundle.document)
        assert "# Reproduction report" in path.read_text()
        assert bundle.join.missing == []
        assert bundle.executed == 0
