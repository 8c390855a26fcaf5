"""The ``campaign`` text report and the HTML dashboard show one rollup.

A small two-version, two-replication campaign is run into a DiskStore
once per module.  The text sections (``campaign_report`` with CI bands,
``latency_band_report``, ``attribution_report``) are rendered from the
runner's return values, the dashboard from the store; every phase-2
figure with its ± band, every latency-quantile mean and every per-version
request count must read the same in both.
"""

import re
from html import unescape

import pytest

from repro.analysis.dashboard import render_dashboard
from repro.analysis.report import (
    attribution_report,
    campaign_report,
    latency_band_report,
)
from repro.experiments.runner import run_campaign
from repro.experiments.settings import Phase1Settings
from repro.experiments.store import DiskStore
from repro.faults.spec import FaultKind
from repro.press.cluster import SMOKE_SCALE

FAST = Phase1Settings(
    scale=SMOKE_SCALE,
    seed=4321,
    warm=15.0,
    fault_at=30.0,
    fault_duration=40.0,
    post_recovery=60.0,
    tail=40.0,
    replications=2,
)

VERSIONS = ["TCP-PRESS", "VIA-PRESS-5"]
FAULTS = [FaultKind.LINK_DOWN, FaultKind.APP_CRASH]
QUANTILES = ("p50", "p95", "p99", "p999")


@pytest.fixture(scope="module")
def views(tmp_path_factory):
    path = tmp_path_factory.mktemp("agree-store")
    store = DiskStore(path)
    sets, report = run_campaign(
        FAST, versions=VERSIONS, faults=FAULTS, store=store
    )
    text = {
        "phase2": campaign_report(sets, replicates=report.replicates),
        "latency": latency_band_report(report),
        "attribution": attribution_report(report),
    }
    html = unescape(
        render_dashboard(
            list(store.iter_cells()), summaries=list(store.iter_summaries())
        )
    )
    return text, html


def _text_phase2(text):
    """{(load, version): (AA, AT, P)} with their ± suffixes, as printed."""
    out, load = {}, None
    for line in text.splitlines():
        m = re.match(r"--- fault load: (.+) ---$", line)
        if m:
            load = m.group(1)
            continue
        m = re.match(
            r"(\S+): AA = ([\d.]+(?: ±[\d.]+)?)  \(unavailability [\d.]+%\)"
            r"  AT = ([\d.]+(?: ±[\d.]+)?) req/s  P = ([\d.]+(?: ±[\d.]+)?)$",
            line,
        )
        if m:
            out[(load, m.group(1))] = m.groups()[1:]
    return out


def _html_phase2(html):
    out = {}
    for block in html.split("<h3>fault load: ")[1:]:
        load, table = block.split("</h3>", 1)
        for version, aa, at, p in re.findall(
            r"<tr><td class='label'>([^<]+)</td><td>([^<]+)</td>"
            r"<td>[^<]+</td><td>([^<]+)</td><td>([^<]+)</td>",
            table.split("</table>", 1)[0],
        ):
            out[(load, version)] = (aa, at, p)
    return out


def _text_latency(text):
    """{stream: (n, [mean per quantile])} from the latency band table."""
    out = {}
    for line in text.splitlines()[2:]:
        if not line.startswith("  "):
            break
        fields = line.split()
        stream, n = fields[0], int(fields[1])
        means = [float(cell.split("±")[0]) for cell in fields[2:]]
        out[stream] = (n, means)
    return out


def _html_latency(html):
    section = html.split("<h2>tail latency</h2>", 1)[1].split("<h2>", 1)[0]
    return {
        f"{version}/{fault}": (int(n), [float(q) for q in qs])
        for version, fault, n, *qs in re.findall(
            r"<tr><td class='label'>([^<]+)</td><td class='label'>([^<]+)"
            r"</td><td>(\d+)</td>" + r"<td>([^<]+)</td>" * 4,
            section,
        )
    }


_COUNTS = r"(\d+) requests, (\d+) lost \(([\d.]+)% unavailable\), (\d+) slow"


def test_phase2_values_and_bands_agree(views):
    text, html = views
    printed = _text_phase2(text["phase2"])
    rendered = _html_phase2(html)
    assert len(printed) == 2 * len(VERSIONS)
    assert printed == rendered
    # Two complete replicates: every figure carries its CI band.
    for figures in printed.values():
        assert all("±" in f for f in figures)


def test_latency_quantile_means_agree(views):
    text, html = views
    printed = _text_latency(text["latency"])
    rendered = _html_latency(html)
    assert len(printed) == len(VERSIONS) * (1 + len(FAULTS))
    assert printed.keys() == rendered.keys()
    for stream, (n, means) in printed.items():
        html_n, html_means = rendered[stream]
        assert n == html_n, stream
        assert len(means) == len(html_means) == len(QUANTILES)
        for q, a, b in zip(QUANTILES, means, html_means):
            # Text prints 4 decimals, the dashboard 3: both are
            # roundings of one mean.
            assert abs(a - b) <= 0.0005 + 0.00005, (stream, q, a, b)


def test_attribution_counts_agree(views):
    text, html = views
    printed = dict(
        (m.group(1), m.groups()[1:])
        for m in re.finditer(r"^  (\S+): " + _COUNTS, text["attribution"], re.M)
    )
    rendered = dict(
        (m.group(1), m.groups()[1:])
        for m in re.finditer(r"<h3>(\S+) — " + _COUNTS + "</h3>", html)
    )
    assert sorted(printed) == sorted(VERSIONS)
    assert printed == rendered
    for requests, lost, _pct, slow in printed.values():
        assert int(requests) > 0
