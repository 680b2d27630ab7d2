"""Every registered figure: regenerate its artefact and time the pass.

One benchmark per visible spec, in presentation order (Section 3, the
paper's figures, then the extensions).  Each times ``run_spec(id)`` and
writes ``render_spec(id)`` to ``benchmarks/results/<id>.txt``.
"""

import pytest

from repro.experiments import get_spec
from repro.experiments.frontend import ordered_specs

#: Text each extension's report must carry besides its title.
EXTENSION_MARKERS = {
    "ext-assoc": "AMAT",
    "ext-context": "quantum",
    "ext-hashed": "bits/line",
    "ext-split": "unified",
    "ext-traffic": "fetch",
    "ext-warmup": "warm",
}


@pytest.mark.parametrize("spec_id", [spec.id for spec in ordered_specs()])
def test_figure(figure_bench, spec_id):
    report = figure_bench(spec_id)
    assert get_spec(spec_id).title.split(":")[0] in report
    assert EXTENSION_MARKERS.get(spec_id, "") in report
