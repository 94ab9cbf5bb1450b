"""The oracle verification suites, run as the `verify` command runs them,
and the kink-aware finite differences behind the gradient suite."""
import hashlib
import json

import numpy as np
import pytest

import reference as R
import shiftseg.tensor as T
from shiftseg import cli, oracle, verify


# sha256 of each suite's oracle_report.json: the suites' measured errors and
# values keep their bits while the code they check does. A change that
# declares a numeric change (in CHANGES.md) re-records these.
REPORT_DIGESTS = {
    "grad": "57a4c29be98565ef1e12d0eed605176bbdfed452acc667172ab3805d69fd53c4",
    "precision": "d3b3b6382b8f26c76f9220ee669cff95491fa5cc2744f4a17eebf42212d62f61",
    "quant": "a244ffecb64c247dd3e3b97008a5a2cb6ec04d1aecbab2602496dfcd882fe01d",
    "stats": "bcbbf705eab7b1f533ee20ff1b82abef7915b3e026b13b22b12d01d663902624",
    "metrics": "fba725107b12f59d1c42faaec46d068139ca642e3ea80adb939904d4b6d1e258",
}


@pytest.mark.parametrize("suite", verify.SUITES)
def test_suite_passes(suite, tmp_path):
    assert cli.main(["verify", "--suite", suite, "--out", str(tmp_path)]) == 0
    report = (tmp_path / "oracle_report.json").read_bytes()
    reports = json.loads(report)
    assert reports and all(r["passed"] for r in reports)
    assert hashlib.sha256(report).hexdigest() == REPORT_DIGESTS[suite]


def test_injected_fault_fails_the_suite(tmp_path, monkeypatch):
    argv = ["verify", "--suite", "metrics", "--out", str(tmp_path)]
    failing = oracle.report("metrics.iou_confusion_vs_counting", 5, 1e-3, 0.0, 1e-12)
    assert not failing.passed
    with monkeypatch.context() as patch:
        patch.setitem(verify.SUITES, "metrics", lambda: [failing])
        assert cli.main(argv) == 1
    assert cli.main(argv) == 0


def plain_central(loss_fn, arr, h):
    """Central differences at step h alone, entry by entry."""
    out = np.zeros_like(arr)
    for i in range(arr.size):
        keep = arr[i]
        arr[i] = keep + h
        up = loss_fn()
        arr[i] = keep - h
        down = loss_fn()
        arr[i] = keep
        out[i] = (up - down) / (2.0 * h)
    return out


@pytest.mark.parametrize("offset", [7.1e-6, -3e-6, 9.9e-6])
def test_fd_gradient_steps_inside_a_straddled_kink(offset):
    h = 1e-5
    x = T.Tensor(np.array([0.3]), requires_grad=True)
    shift = T.Tensor(np.array([-(0.3 + offset)]))  # kink within +-h of x

    def loss():
        return R.tsum(R.leaky_relu(T.add(x, shift)))

    T.backward(loss())
    analytic = {"x": x.grad.copy()}
    plain = plain_central(lambda: loss().item(), x.data, h)
    assert oracle.gradient_errors(analytic, {"x": plain})[0] > 1e-4
    numeric, kinks = oracle.fd_gradient(lambda: loss().item(), {"x": x.data}, h=h)
    assert oracle.gradient_errors(analytic, numeric)[0] <= 1e-4
    assert kinks == 1
    assert x.data[0] == 0.3  # perturbations are undone


def test_fd_gradient_keeps_step_h_on_a_smooth_loss():
    x = np.array([0.7, -1.3])

    def loss():
        return float(np.sum(np.exp(3.0 * x)))

    numeric, kinks = oracle.fd_gradient(loss, {"x": x}, h=1e-5)
    assert kinks == 0
    assert np.array_equal(numeric["x"], plain_central(loss, x, 1e-5))


def test_the_gradient_suite_checks_a_shifted_region():
    # at tiny_config's own t=2.0 the step flags none of its 17 labeled rows,
    # so a check there never reaches the distillation gradient
    with pytest.raises(ValueError, match="shifts 0 row"):
        verify.tiny_step(verify.tiny_config())
    total = verify.suite_grad()[0]
    assert total.check == "grad.total_vs_fd" and total.passed
    assert total.detail["ssr_rows"] == 9
