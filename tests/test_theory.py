"""Tests for the analytical model and its agreement with simulation."""

import pytest

from repro.analysis.theory import (
    MODELS,
    heavy_load_response_time,
    rcv_heavy_load_min_forwards,
    rcv_light_load_nme,
    rcv_light_load_nme_paper,
    rcv_response_time_bounds,
    rcv_sync_delay,
    rcv_worst_case_nme,
)
from repro.analysis.validate import compare_to_theory
from repro.registry import algorithm_names, get_algorithm
from repro.workload import BurstArrivals, Scenario, run_scenario


# ----------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------
def test_rcv_light_load_values():
    assert rcv_light_load_nme(10) == 6  # ⌊10/2⌋ + 1
    assert rcv_light_load_nme(11) == 6
    assert rcv_light_load_nme_paper(10) == 7  # the paper's [N/2]+2
    assert rcv_light_load_nme(1) == 0
    with pytest.raises(ValueError):
        rcv_light_load_nme(0)


def test_rcv_worst_case():
    assert rcv_worst_case_nme(10) == 10  # N-1 hops + EM
    assert rcv_worst_case_nme(1) == 0


def test_rcv_heavy_load_min_forwards():
    assert rcv_heavy_load_min_forwards(30, 30) == 3  # [N/m]+2
    assert rcv_heavy_load_min_forwards(30, 3) == 12
    with pytest.raises(ValueError):
        rcv_heavy_load_min_forwards(10, 11)


def test_rcv_delays():
    assert rcv_sync_delay(5.0) == 5.0
    lo, hi = rcv_response_time_bounds(10, 5.0)
    assert lo == 7 * 5.0 and hi == 9 * 5.0
    assert heavy_load_response_time(30, 5.0, 10.0) == 450.0


def test_models_registry_covers_all_algorithms():
    expected = {
        "rcv",
        "ricart_agrawala",
        "lamport",
        "suzuki_kasami",
        "maekawa",
        "centralized",
        "raymond",
        "naimi_trehel",
        "agrawal_elabbadi",
    }
    assert expected <= set(MODELS)
    for name, model in MODELS.items():
        lo, hi = model.nme(16)
        assert 0 <= lo <= hi, name
        assert model.sync_delay(5.0) >= 0


# ----------------------------------------------------------------------
# simulation agreement
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "algorithm",
    ["rcv", "ricart_agrawala", "suzuki_kasami", "maekawa", "lamport"],
)
def test_burst_measurements_within_model_bounds(algorithm):
    result = run_scenario(
        Scenario(
            algorithm=algorithm,
            n_nodes=16,
            arrivals=BurstArrivals(requests_per_node=3),
            seed=1,
        )
    )
    comparison = compare_to_theory(result, tn=5.0)
    assert comparison.nme_within_bounds, comparison.row()
    assert comparison.sync_within_bounds, comparison.row()


def test_compare_resolves_aliases():
    result = run_scenario(
        Scenario(algorithm="broadcast", n_nodes=9, arrivals=BurstArrivals())
    )
    comparison = compare_to_theory(result)
    assert comparison.algorithm == "suzuki_kasami"


def test_rcv_heavy_load_response_near_full_rotation():
    """§6.1.3: saturated response approaches N·(Tn+Tc)."""
    n = 12
    result = run_scenario(
        Scenario(
            algorithm="rcv",
            n_nodes=n,
            arrivals=BurstArrivals(requests_per_node=4),
            seed=2,
        )
    )
    predicted = heavy_load_response_time(n, 5.0, 10.0)
    # Steady-state mean sits near the rotation bound; allow the
    # burst's cold start to pull it below.
    assert 0.4 * predicted <= result.mean_response_time <= 1.2 * predicted


@pytest.mark.parametrize("name", algorithm_names())
def test_every_registry_name_compares_against_its_class_model(name):
    """A second name (``broadcast``, ``tree_quorum``) is compared
    against its class's model, as the registry resolves it."""
    result = run_scenario(
        Scenario(algorithm=name, n_nodes=4, arrivals=BurstArrivals())
    )
    comparison = compare_to_theory(result)
    assert comparison.algorithm == get_algorithm(name).algorithm_name
    assert comparison.predicted_nme_low <= comparison.predicted_nme_high
