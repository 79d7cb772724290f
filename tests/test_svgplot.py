"""The SVG chart writer: its exact output for one small chart."""

from specinv.svgplot import line_chart

# two series, an unlabelled and a labelled marker, and text that needs escaping; the
# labelled marker sits where its label's x, offset from the unrounded position, rounds
# differently than the marker line's x plus 4
GOLDEN = """\
<svg xmlns="http://www.w3.org/2000/svg" width="960" height="600" viewBox="0 0 960 600">
<rect width="100%" height="100%" fill="#ffffff"/>
<text x="480.0" y="34" text-anchor="middle" font-size="20" font-family="Helvetica">A &amp; B &lt; C</text>
<line x1="80" y1="520.00" x2="750" y2="520.00" stroke="#dddddd" stroke-width="1"/>
<text x="72" y="524.00" text-anchor="end" font-size="12" font-family="Helvetica">-1.15</text>
<line x1="80.00" y1="520" x2="80.00" y2="525" stroke="#000000" stroke-width="1"/>
<text x="80.00" y="542" text-anchor="middle" font-size="12" font-family="Helvetica">1</text>
<line x1="80" y1="428.00" x2="750" y2="428.00" stroke="#dddddd" stroke-width="1"/>
<text x="72" y="432.00" text-anchor="end" font-size="12" font-family="Helvetica">-0.49</text>
<line x1="214.00" y1="520" x2="214.00" y2="525" stroke="#000000" stroke-width="1"/>
<text x="214.00" y="542" text-anchor="middle" font-size="12" font-family="Helvetica">1.4</text>
<line x1="80" y1="336.00" x2="750" y2="336.00" stroke="#dddddd" stroke-width="1"/>
<text x="72" y="340.00" text-anchor="end" font-size="12" font-family="Helvetica">0.17</text>
<line x1="348.00" y1="520" x2="348.00" y2="525" stroke="#000000" stroke-width="1"/>
<text x="348.00" y="542" text-anchor="middle" font-size="12" font-family="Helvetica">1.8</text>
<line x1="80" y1="244.00" x2="750" y2="244.00" stroke="#dddddd" stroke-width="1"/>
<text x="72" y="248.00" text-anchor="end" font-size="12" font-family="Helvetica">0.83</text>
<line x1="482.00" y1="520" x2="482.00" y2="525" stroke="#000000" stroke-width="1"/>
<text x="482.00" y="542" text-anchor="middle" font-size="12" font-family="Helvetica">2.2</text>
<line x1="80" y1="152.00" x2="750" y2="152.00" stroke="#dddddd" stroke-width="1"/>
<text x="72" y="156.00" text-anchor="end" font-size="12" font-family="Helvetica">1.49</text>
<line x1="616.00" y1="520" x2="616.00" y2="525" stroke="#000000" stroke-width="1"/>
<text x="616.00" y="542" text-anchor="middle" font-size="12" font-family="Helvetica">2.6</text>
<line x1="80" y1="60.00" x2="750" y2="60.00" stroke="#dddddd" stroke-width="1"/>
<text x="72" y="64.00" text-anchor="end" font-size="12" font-family="Helvetica">2.15</text>
<line x1="750.00" y1="520" x2="750.00" y2="525" stroke="#000000" stroke-width="1"/>
<text x="750.00" y="542" text-anchor="middle" font-size="12" font-family="Helvetica">3</text>
<line x1="80" y1="520" x2="750" y2="520" stroke="#000000" stroke-width="2"/>
<line x1="80" y1="60" x2="80" y2="520" stroke="#000000" stroke-width="2"/>
<polyline fill="none" stroke="#1f77b4" stroke-width="2" points="80.00,290.00 415.00,324.85 750.00,220.30"/>
<line x1="766" y1="76" x2="788" y2="76" stroke="#1f77b4" stroke-width="2"/>
<text x="794" y="80" font-size="13" font-family="Helvetica">train &amp; &lt;val&gt;</text>
<polyline fill="none" stroke="#d62728" stroke-width="2" points="80.00,80.91 750.00,499.09"/>
<line x1="766" y1="98" x2="788" y2="98" stroke="#d62728" stroke-width="2"/>
<text x="794" y="102" font-size="13" font-family="Helvetica">&quot;test&quot;</text>
<line x1="582.50" y1="60" x2="582.50" y2="520" stroke="#444444" stroke-width="1.5" stroke-dasharray="6,4"/>
<line x1="253.86" y1="60" x2="253.86" y2="520" stroke="#444444" stroke-width="1.5" stroke-dasharray="6,4"/>
<text x="257.87" y="88" font-size="12" font-family="Helvetica" fill="#444444">true &gt; 2</text>
<text x="415.0" y="572" text-anchor="middle" font-size="14" font-family="Helvetica">x &quot;nm&quot;</text>
<text x="24" y="290.0" text-anchor="middle" font-size="14" font-family="Helvetica" transform="rotate(-90 24 290.0)">y &amp; z</text>
</svg>
"""


def test_line_chart_writes_the_golden_text():
    svg = line_chart(
        [("train & <val>", [1, 2, 3], [0.5, 0.25, 1.0]), ('"test"', [1.0, 3.0], [2.0, -1.0])],
        title="A & B < C",
        x_label='x "nm"',
        y_label="y & z",
        vlines=[("", 2.5), ("true > 2", 1.519)],
    )
    assert svg == GOLDEN
