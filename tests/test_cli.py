import json
import math

import numpy as np
import pytest

from delaypsa import cli


DISK = {
    "name": "disk",
    "n": 1,
    "delays": [],
    "A0": [[0.0]],
    "A": [],
    "weights": [1.0],
    "epsilon": 0.25,
}

ONE_DELAY = {
    "name": "scalar-one-delay",
    "n": 1,
    "delays": [1.0],
    "A0": [[0.0]],
    "A": [[[-1.0]]],
    "weights": [1.0, 1.0],
    "epsilon": 0.1,
}


def write_file(tmp_path, payload, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def system_file_dict(name, system, pert):
    """Round-trippable dict in the system file layout."""
    return {
        "name": name,
        "n": system.n,
        "delays": list(system.delays[1:]),
        "A0": system.matrices[0].tolist(),
        "A": [a.tolist() for a in system.matrices[1:]],
        "weights": ["inf" if math.isinf(w) else w for w in pert.weights],
        "epsilon": pert.epsilon,
    }


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- file parsing -------------------------------------------------------------


def test_round_trip(tmp_path):
    path = write_file(tmp_path, ONE_DELAY)
    name, system, pert = cli.load_system_file(path)
    again = system_file_dict(name, system, pert)
    assert again == ONE_DELAY


def test_round_trip_infinite_weight(tmp_path):
    payload = dict(ONE_DELAY, weights=[1.0, "inf"])
    path = write_file(tmp_path, payload)
    name, system, pert = cli.load_system_file(path)
    assert math.isinf(pert.weights[1])
    assert system_file_dict(name, system, pert)["weights"] == [1.0, "inf"]


def test_load_rejects_missing_fields(tmp_path):
    payload = {k: v for k, v in ONE_DELAY.items() if k != "A0"}
    path = write_file(tmp_path, payload)
    with pytest.raises(ValueError, match="A0"):
        cli.load_system_file(path)


def test_load_rejects_nan_literal(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "delays": [NaN], "A0": [[0]], "A": [[[0]]], '
                    '"weights": [1], "epsilon": 0.1}')
    with pytest.raises(ValueError, match="non-finite"):
        cli.load_system_file(str(path))


def test_load_rejects_wrong_shape(tmp_path):
    payload = dict(ONE_DELAY, A0=[[0.0, 1.0]])
    path = write_file(tmp_path, payload)
    with pytest.raises(ValueError, match="A0 must be 1x1"):
        cli.load_system_file(str(path))


def test_load_rejects_negative_delay(tmp_path):
    payload = dict(ONE_DELAY, delays=[-1.0])
    path = write_file(tmp_path, payload)
    with pytest.raises(ValueError, match="delays"):
        cli.load_system_file(str(path))


# --- compute ------------------------------------------------------------------


def test_compute_disk(tmp_path, capsys):
    path = write_file(tmp_path, DISK)
    code, out, _ = run(capsys, "compute", path, "--tol", "1e-6")
    assert code == 0
    record = json.loads(out)
    assert abs(record["alpha_eps"] - 0.25) < 1e-8
    assert abs(record["omega_eps"]) < 1e-6
    assert record["name"] == "disk"


def test_compute_epsilon_override(tmp_path, capsys):
    path = write_file(tmp_path, DISK)
    code, out, _ = run(capsys, "compute", path, "--epsilon", "0.5",
                       "--tol", "1e-6")
    assert code == 0
    assert abs(json.loads(out)["alpha_eps"] - 0.5) < 1e-8


def test_compute_record_invariants(tmp_path, capsys):
    path = write_file(tmp_path, ONE_DELAY)
    code, out, _ = run(capsys, "compute", path)
    assert code == 0
    record = json.loads(out)
    assert record["alpha_eps"] >= record["spectral_abscissa"]
    assert abs(record["alpha_pred"] - record["alpha_eps"]) < 10 * record["tol"]
    assert record["iterations"]["bisection"] > 0
    assert len(record["iterations"]["gauss_newton"]) == len(record["frequencies"])
    assert record["warnings"] == []
    assert record["wall_time_seconds"] > 0.0


def test_compute_deterministic_modulo_timing(tmp_path, capsys):
    path = write_file(tmp_path, ONE_DELAY)
    _, out1, _ = run(capsys, "compute", path)
    _, out2, _ = run(capsys, "compute", path)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_time_seconds"), r2.pop("wall_time_seconds")
    assert r1 == r2


def test_compute_writes_output_file(tmp_path, capsys):
    path = write_file(tmp_path, DISK)
    out_path = tmp_path / "result.json"
    code, out, _ = run(capsys, "compute", path, "--output", str(out_path))
    assert code == 0 and out == ""
    assert abs(json.loads(out_path.read_text())["alpha_eps"] - 0.25) < 1e-6


def test_compute_missing_file(capsys):
    code, _, err = run(capsys, "compute", "/nonexistent/x.json")
    assert code == 1
    assert "error" in err


def test_compute_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "compute", str(path))
    assert code == 1


@pytest.mark.parametrize("field, value", [
    ("delays", 1.0), ("delays", [[1.0]]), ("delays", [None]), ("A", 5),
    ("A0", [[{}]]), ("A0", [[True]]), ("A", [[["-1"]]]), ("A", [[[None]]]),
    ("weights", 3), ("epsilon", None), ("n", True),
    # a boolean among numbers, which numpy alone reads as 1
    ("A0", {"n": 2, "A0": [[0.0, True], [0, -1]], "A": [[[-1, 0], [0, -1]]]}),
    # fewer delayed matrices than delays
    ("A", {"delays": [0.5, 1.0]}),
])
def test_compute_wrongly_typed_field_exits_one(tmp_path, capsys, field, value):
    fields = value if isinstance(value, dict) else {field: value}
    path = write_file(tmp_path, dict(ONE_DELAY, **fields))
    code, out, err = run(capsys, "compute", path)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_compute_non_object_file_exits_one(tmp_path, capsys):
    path = write_file(tmp_path, [ONE_DELAY])
    code, out, err = run(capsys, "compute", path)
    assert code == 1 and out == ""
    assert "JSON object" in err


def test_compute_names_offending_field(tmp_path, capsys):
    payload = dict(ONE_DELAY, weights=[1.0, -1.0])
    path = write_file(tmp_path, payload)
    code, _, err = run(capsys, "compute", path)
    assert code == 1
    assert "weight" in err


def test_compute_all_starts_failed_exit_code(tmp_path, capsys):
    # a zero iteration budget cannot converge from a coarse prediction
    path = write_file(tmp_path, ONE_DELAY)
    code, out, _ = run(capsys, "compute", path, "--gn-tol", "1e-30")
    assert code == 2
    assert "error" in json.loads(out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_compute_far_left_iterate_exits_two_without_traceback(tmp_path, capsys):
    # the one Gauss-Newton run walks left until exp(-2 sigma) in w overflows
    path = write_file(tmp_path, dict(ONE_DELAY, delays=[2.0], A0=[[-400.0]],
                                     A=[[[1e-200]]], epsilon=0.01))
    code, out, err = run(capsys, "compute", path)
    assert code == 2
    assert "error" in json.loads(out)
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_compute_far_left_unperturbed_delay_exits_two_without_traceback(
        tmp_path, capsys):
    # w has no delayed term; the Gauss-Newton iterate's F overflows instead
    path = write_file(tmp_path, dict(ONE_DELAY, delays=[2.0], A0=[[-400.0]],
                                     A=[[[1e-200]]], weights=[1.0, "inf"],
                                     epsilon=0.01))
    code, out, err = run(capsys, "compute", path)
    assert code == 2
    assert "error" in json.loads(out)
    assert "Traceback" not in err


def test_compute_rejects_nonpositive_gn_tol(tmp_path, capsys):
    path = write_file(tmp_path, ONE_DELAY)
    code, out, err = run(capsys, "compute", path, "--gn-tol", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "gn_tol" in err


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_compute_rejects_nonfinite_tol(tmp_path, capsys, recwarn, tol):
    path = write_file(tmp_path, ONE_DELAY)
    code, out, err = run(capsys, "compute", path, "--tol", tol)
    assert code == 1
    assert out == ""
    assert err == f"error: tol must be positive and finite, got {tol}\n"
    assert not recwarn.list


# --- contour ------------------------------------------------------------------


def test_contour_disk_circle(tmp_path, capsys):
    path = write_file(tmp_path, DISK)
    code, out, _ = run(
        capsys, "contour", path,
        "--re-min", "-0.5", "--re-max", "0.5",
        "--im-min", "-0.5", "--im-max", "0.5",
        "--n-re", "151", "--n-im", "151",
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = [l for l in lines if l.startswith("#")]
    rows = [l for l in lines if not l.startswith("#")]
    assert any(l.startswith("# level=4.0") for l in header)
    assert rows[0] == "polyline_id,re,im"
    pts = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    assert set(pts[:, 0]) == {0.0}  # one polyline
    radius = np.hypot(pts[:, 1], pts[:, 2])
    assert np.max(np.abs(radius - 0.25)) < 2.0 / 150.0


def test_contour_metadata_includes_roots_and_abscissa(tmp_path, capsys):
    path = write_file(tmp_path, ONE_DELAY)
    code, out, _ = run(
        capsys, "contour", path,
        "--re-min", "-0.5", "--re-max", "0.1",
        "--im-min", "0.0", "--im-max", "2.0",
        "--n-re", "61", "--n-im", "61",
    )
    assert code == 0
    assert "# alpha_eps=" in out
    assert "# spectral_abscissa=" in out
    roots = [l for l in out.splitlines() if l.startswith("# root=")]
    assert roots
    re0, im0 = map(float, roots[0].split("=")[1].split(","))
    assert abs(re0 - (-0.3181315052047662)) < 1e-9


def test_contour_empty_region_metadata_only(tmp_path, capsys):
    path = write_file(tmp_path, DISK)
    code, out, _ = run(
        capsys, "contour", path,
        "--re-min", "1.0", "--re-max", "1.5",
        "--im-min", "0.0", "--im-max", "0.5",
        "--n-re", "21", "--n-im", "21",
    )
    assert code == 0
    rows = [l for l in out.strip().splitlines() if not l.startswith("#")]
    assert rows == ["polyline_id,re,im"]


def test_contour_consistent_with_compute(tmp_path, capsys):
    path = write_file(tmp_path, DISK)
    code, out, _ = run(
        capsys, "contour", path,
        "--re-min", "-0.5", "--re-max", "0.5",
        "--im-min", "-0.5", "--im-max", "0.5",
        "--n-re", "201", "--n-im", "201",
    )
    assert code == 0
    alpha = float([l for l in out.splitlines()
                   if l.startswith("# alpha_eps=")][0].split("=")[1])
    rows = [l for l in out.strip().splitlines()
            if not l.startswith("#") and not l.startswith("polyline_id")]
    rightmost = max(float(r.split(",")[1]) for r in rows)
    assert abs(rightmost - alpha) <= 1.0 / 200.0


def test_contour_computes_spectral_abscissa_once(tmp_path, capsys,
                                                 monkeypatch):
    from delaypsa import predictor

    calls = []
    real = predictor.spectral_abscissa_exact

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(predictor, "spectral_abscissa_exact", counting)
    # also count a call the command might make on its own, outside predict
    monkeypatch.setattr(cli, "spectral_abscissa_exact", counting, raising=False)
    path = write_file(tmp_path, ONE_DELAY)
    code, _, _ = run(
        capsys, "contour", path,
        "--re-min", "-0.5", "--re-max", "0.1",
        "--im-min", "0.0", "--im-max", "2.0",
        "--n-re", "21", "--n-im", "21",
    )
    assert code == 0
    assert len(calls) == 1


def test_contour_header_when_correction_fails(tmp_path, capsys):
    path = write_file(tmp_path, ONE_DELAY)
    code, out, _ = run(
        capsys, "contour", path, "--gn-tol", "1e-30",
        "--re-min", "-0.5", "--re-max", "0.1",
        "--im-min", "0.0", "--im-max", "2.0",
        "--n-re", "21", "--n-im", "21",
    )
    assert code == 0
    header = [l for l in out.splitlines() if l.startswith("#")]
    for key in ("# spectral_abscissa=", "# root=", "# alpha_eps_error="):
        assert any(l.startswith(key) for l in header), key


def _stages(monkeypatch, *names):
    """Replace each named cli stage with a recorder that fails if reached."""
    reached = []

    def stage(name):
        def reach(*args, **kwargs):
            reached.append(name)
            raise AssertionError(f"{name} ran")
        return reach

    for name in names:
        monkeypatch.setattr(cli, name, stage(name))
    return reached


@pytest.mark.parametrize("option", ["--gn-tol", "--tol"])
def test_contour_checks_solver_options_before_contours(tmp_path, capsys,
                                                       monkeypatch, option):
    # a bad --gn-tol stops before the prediction, a bad --tol inside it;
    # neither reaches the contour extraction
    reached = _stages(monkeypatch, "contours",
                      *(["predict"] if option == "--gn-tol" else []))
    path = write_file(tmp_path, ONE_DELAY)
    code, out, err = run(
        capsys, "contour", path, option, "0",
        "--re-min", "-0.5", "--re-max", "0.1",
        "--im-min", "0.0", "--im-max", "2.0",
    )
    assert (code, out, reached) == (1, "", [])
    assert err.startswith("error:") and "positive and finite" in err


def test_oracle_compare_checks_gn_tol_before_the_grid(tmp_path, capsys,
                                                      monkeypatch):
    reached = _stages(monkeypatch, "grid_psa")
    path = write_file(tmp_path, ONE_DELAY)
    code, out, err = run(
        capsys, "oracle", path, "--compare", "--gn-tol", "0",
        "--re-min", "-0.5", "--re-max", "0.2",
        "--im-min", "0", "--im-max", "2",
    )
    assert (code, out, reached) == (1, "", [])
    assert err.startswith("error:") and "gn_tol" in err


# --- oracle -------------------------------------------------------------------


def test_oracle_disk(tmp_path, capsys):
    path = write_file(tmp_path, DISK)
    code, out, _ = run(
        capsys, "oracle", path,
        "--re-min", "-0.5", "--re-max", "0.5",
        "--im-min", "-0.5", "--im-max", "0.5",
        "--n-re", "101", "--n-im", "101",
    )
    assert code == 0
    record = json.loads(out)
    assert abs(record["alpha_eps_grid"] - 0.25) <= 2 * record["resolution"]


def test_oracle_compare_gap(tmp_path, capsys):
    path = write_file(tmp_path, ONE_DELAY)
    code, out, _ = run(
        capsys, "oracle", path, "--compare",
        "--re-min", "-0.4", "--re-max", "0.1",
        "--im-min", "0.9", "--im-max", "1.7",
        "--n-re", "126", "--n-im", "201",
    )
    assert code == 0
    record = json.loads(out)
    assert record["gap"] <= 2e-3


def test_oracle_non_finite_bound_exits_one(tmp_path, capsys, recwarn):
    path = write_file(tmp_path, DISK)
    code, out, err = run(
        capsys, "oracle", path,
        "--re-min", "-0.5", "--re-max", "inf",
        "--im-min", "-0.5", "--im-max", "0.5",
    )
    assert code == 1 and out == ""
    assert "region bounds must be finite" in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_oracle_rejects_negative_refine(tmp_path, capsys):
    path = write_file(tmp_path, DISK)
    code, out, err = run(
        capsys, "oracle", path, "--refine", "-1",
        "--re-min", "-0.5", "--re-max", "0.5",
        "--im-min", "-0.5", "--im-max", "0.5",
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "refine_iters" in err


def test_oracle_region_too_small_exit(tmp_path, capsys):
    path = write_file(tmp_path, DISK)
    code, _, err = run(
        capsys, "oracle", path,
        "--re-min", "-0.5", "--re-max", "0.2",
        "--im-min", "-0.5", "--im-max", "0.5",
        "--n-re", "51", "--n-im", "51",
    )
    assert code == 1
    assert "re-max" in err or "right edge" in err


def test_oracle_region_without_inside_node_exit(tmp_path, capsys):
    # the disk |z| <= 0.25 lies wholly left of the region
    path = write_file(tmp_path, DISK)
    code, _, err = run(
        capsys, "oracle", path,
        "--re-min", "1.0", "--re-max", "1.5",
        "--im-min", "-0.5", "--im-max", "0.5",
        "--n-re", "21", "--n-im", "21",
    )
    assert code == 1
    assert err.startswith("error: ") and "check the region" in err


@pytest.mark.parametrize("command", ["oracle", "contour"])
def test_far_left_region_exits_one_without_traceback(tmp_path, capsys,
                                                     command):
    # exp(-lam * 30) overflows at re_min = -30
    path = write_file(tmp_path, dict(ONE_DELAY, delays=[30.0]))
    code, _, err = run(
        capsys, command, path,
        "--re-min", "-30", "--re-max", "0.2",
        "--im-min", "0", "--im-max", "2",
        "--n-re", "21", "--n-im", "21",
    )
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert "too far left" in err


def test_oracle_compare_all_starts_failed_exit_code(tmp_path, capsys):
    path = write_file(tmp_path, ONE_DELAY)
    code, _, err = run(
        capsys, "oracle", path, "--compare", "--gn-tol", "1e-30",
        "--re-min", "-0.5", "--re-max", "0.2",
        "--im-min", "0", "--im-max", "2",
        "--n-re", "41", "--n-im", "41",
    )
    assert code == 2
    assert err.startswith("error: ")


def test_solver_failure_exits_one_without_traceback(tmp_path, capsys,
                                                    monkeypatch):
    from delaypsa import numerics

    def fail(*args, **kwargs):
        raise numerics.NoConvergenceError("QR iteration did not converge")

    monkeypatch.setattr(numerics, "eig_real", fail)
    path = write_file(tmp_path, ONE_DELAY)
    code, _, err = run(capsys, "compute", path)
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
