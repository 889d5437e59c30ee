"""Fig. 3 — behaviour of the EH system to a transient input, with and without
power-neutral performance scaling.

Shows that a tiny buffer capacitor alone only delays the undervoltage event,
while graceful performance scaling rides the transient out entirely.
"""

from repro.analysis.reporting import format_series
from repro.experiments.characterisation import fig3_concept

from _bench_utils import emit, print_header


def test_fig03_concept(benchmark):
    data = benchmark(fig3_concept, duration_s=8.0)

    print_header(
        "Fig. 3 — transient response with and without performance scaling",
        data["paper_reference"],
    )
    without = data["without_control"]
    with_ctrl = data["with_control"]
    emit(format_series("V_C without control", without["times"], without["voltage"], units="V"))
    emit(format_series("V_C with control   ", with_ctrl["times"], with_ctrl["voltage"], units="V"))
    emit(f"minimum operating voltage          : {data['minimum_operating_voltage']:.2f} V")
    emit(f"first undervoltage without control : {without['first_undervoltage_s']} s "
         f"({without['brownouts']} brown-outs)")
    emit(f"minimum V_C with control           : {with_ctrl['min_voltage_v']:.2f} V "
          f"({with_ctrl['brownouts']} brown-outs)")

    assert without["first_undervoltage_s"] is not None
    assert with_ctrl["brownouts"] == 0
