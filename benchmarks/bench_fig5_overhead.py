"""Fig. 5 — single-layer overhead characterization.

Regenerates the figure's series: accelerator-peak vs. full-HTVM-call
throughput for Conv2D / FC / DWConv2D geometries on the digital core
and Conv2D channel/spatial scaling on the analog core.

Paper claims checked (loss = 1 - peak/full):
* analog Conv2D loses ~5.2% on average, as little as 0.51%,
* digital Conv2D loses only a few percent at best (paper: 1.32%),
* the fastest FC layers lose the most (paper: ~54.5%),
* DWConv2D is never more than 20.7% slower, at 3.75 MACs/cycle peak.
"""

import pytest

from repro.eval import fig5
from repro.eval.fig5 import loss_stats


@pytest.fixture(scope="module")
def points():
    return fig5.characterize()


def test_fig5_regenerate(report, points):
    report(fig5.format_fig5(points))
    stats = loss_stats(points)
    lines = ["Fig. 5 headline losses (ours vs paper):"]
    lines.append(f"  analog conv mean  {stats['analog_conv_channel']['mean']*100:5.2f}%  (paper 5.20%)")
    lines.append(f"  analog conv min   {min(stats['analog_conv_channel']['min'], stats['analog_conv_spatial']['min'])*100:5.2f}%  (paper 0.51%)")
    lines.append(f"  digital conv best {stats['digital_conv_spatial']['min']*100:5.2f}%  (paper 1.32%)")
    lines.append(f"  digital FC worst  {stats['digital_fc_channel']['max']*100:5.2f}%  (paper 54.5%)")
    lines.append(f"  digital DW max    {stats['digital_dwconv']['max']*100:5.2f}%  (paper <= 20.7%)")
    report("\n".join(lines))


def test_fig5_dw_bounded(points):
    stats = loss_stats(points)
    assert stats["digital_dwconv"]["max"] <= 0.207


def test_fig5_fc_worst_case(points):
    stats = loss_stats(points)
    assert stats["digital_fc_channel"]["max"] > 0.30


def test_fig5_conv_overhead_small(points):
    stats = loss_stats(points)
    assert stats["digital_conv_spatial"]["min"] < 0.10
    assert stats["analog_conv_channel"]["mean"] < 0.15


def test_fig5_dw_peak_throughput(points):
    dw = [p for p in points if p.series == "digital_dwconv"]
    assert max(p.peak_throughput for p in dw) <= 3.75 + 1e-9
    assert max(p.peak_throughput for p in dw) > 3.0
