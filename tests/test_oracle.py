import numpy as np
import pytest

from dgssm.oracle import (
    SUITES,
    SuiteResult,
    convolve_with_table,
    floyd_warshall_spd,
    oracle_check,
    run_all,
    sequence_scan_oracle,
    suite_gradcheck,
)
from dgssm.graphs import DiGraph


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        oracle_check("nope")


def test_suite_result_formatting():
    r = SuiteResult("demo", True, 1.5e-12, "details here")
    assert "[PASS] demo" in str(r)
    assert "FAIL" in str(SuiteResult("demo", False, 1.0, "x"))


def test_all_suite_names_registered():
    assert set(SUITES) == {
        "scc", "pagerank", "depthplus", "ssm-equivalence",
        "scan-equivalence", "permutation", "gradcheck", "receptive-field",
    }


def test_floyd_warshall_small_case():
    g = DiGraph(3, np.array([[0, 1], [1, 2]]), np.zeros((3, 1)))
    dist = floyd_warshall_spd(g)
    assert dist[0, 2] == 2 and np.isinf(dist[2, 0])


def test_convolution_helper_is_causal():
    mats = np.zeros((3, 2, 2))
    mats[0] = np.eye(2)
    xs = np.arange(6.0).reshape(3, 2)
    # Identity hop-0 kernel and zero higher hops leave the input unchanged.
    assert np.allclose(convolve_with_table(mats, xs), xs)


@pytest.mark.parametrize("name", ["scc", "depthplus"])
def test_fast_suites_pass_under_different_seeds(name):
    assert SUITES[name](seed=123, cases=30).passed


def test_gradcheck_suite_is_tight():
    # Criterion 5 gates at 1e-3; a correct backward through the whole model
    # reads near 1e-9, so an op that drops part of its gradient shows here.
    assert suite_gradcheck(seed=0).max_err <= 1e-6
