import json

import pytest

from dqsim import cli


def _run(argv):
    return cli.main(argv)


def test_state_json_report(tmp_path):
    out = tmp_path / "state.json"
    rc = _run(
        [
            "state",
            "--n", "2", "--m", "1",
            "--alpha-sq", "5.45", "--R", "0.8175",
            "--format", "json", "--out", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["tool"] == "dqsim"
    fields = {row[0]: row[1] for row in doc["data"]}
    assert fields["min_var"] == pytest.approx(0.2753, abs=5e-4)
    assert fields["chi"] == pytest.approx(5.45 * (1 - 0.8175), rel=1e-9)
    assert 0.0 < fields["success_prob"] < 1.0
    assert fields["class"] == "DQ+1"


def test_state_coherent_output(tmp_path):
    out = tmp_path / "state.json"
    rc = _run(
        ["state", "--n", "0", "--m", "0", "--alpha-sq", "4", "--R", "0.5",
         "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    fields = {row[0]: row[1] for row in json.loads(out.read_text())["data"]}
    assert fields["var_x"] == pytest.approx(0.5, abs=1e-9)
    assert fields["var_p"] == pytest.approx(0.5, abs=1e-9)


def test_state_csv_report(tmp_path):
    out = tmp_path / "state.csv"
    rc = _run(["state", "--n", "2", "--m", "1", "--alpha-sq", "5.45", "--R", "0.8175",
               "--out", str(out)])
    assert rc == 0
    fields = dict(line.split(",", 1) for line in out.read_text().splitlines()[1:])
    assert fields["class"] == "DQ+1"
    assert float(fields["min_var"]) == pytest.approx(0.2753, abs=5e-4)


def test_scan_csv_format(tmp_path):
    out = tmp_path / "scan.csv"
    rc = _run(
        ["scan", "--n", "1", "--m", "0", "--grid", "0.5:4:8,0.2:0.8:4",
         "--out", str(out)]
    )
    assert rc == 0
    raw = out.read_bytes()
    assert b"\r" not in raw  # LF endings only
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "alpha_sq,R,value"
    assert len(lines) == 1 + 8 * 4
    for line in lines[1:]:
        a2, R, val = (float(x) for x in line.split(","))
        assert 0.0 < val


def test_rerun_byte_identical(tmp_path):
    cases = [
        ["scan", "--n", "1", "--m", "1", "--grid", "0.5:6:12,0.1:0.9:9", "--format", "csv"],
        ["state", "--n", "2", "--m", "3", "--alpha-sq", "3.3", "--R", "0.44",
         "--eta-d", "0.85", "--eta-s", "0.9", "--format", "json"],
        ["optimize", "--n", "1", "--m", "0", "--format", "json"],
    ]
    for i, args in enumerate(cases):
        out1, out2 = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert _run(args + ["--out", str(out1)]) == 0
        assert _run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["state", "--n", "1", "--m", "1", "--alpha-sq", "1.0"])  # missing --R
    assert exc.value.code == 2

    rc = _run(["state", "--n", "1", "--m", "1", "--alpha-sq", "1.0", "--R", "1.5"])
    assert rc == 2
    assert "--R" in capsys.readouterr().err


def test_bad_grid_exit_code(capsys):
    rc = _run(["scan", "--n", "1", "--m", "0", "--grid", "nonsense"])
    assert rc == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, quantity",
    [
        # vacuum input can never herald a photon
        (["--n", "0", "--m", "2", "--alpha-sq", "0", "--R", "0.5"], "all coefficients vanish"),
        # H_{2-q,200}(x, x) overflows at x^2 = 1500
        (["--n", "2", "--m", "200", "--alpha-sq", "3000", "--R", "0.5"], "C_q overflow"),
        # exp(-|alpha|^2 (1 - R)) underflows
        (["--n", "2", "--m", "1", "--alpha-sq", "100000", "--R", "0.5"], "success probability"),
    ],
    ids=["zero-probability", "coefficient-overflow", "probability-underflow"],
)
def test_numerical_failure_exit_code(capsys, argv, quantity):
    rc = _run(["state"] + argv)
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and quantity in err
    assert len(err.strip().splitlines()) == 1


def test_wigner_grid_output(tmp_path):
    out = tmp_path / "w.csv"
    rc = _run(
        ["wigner", "--n", "1", "--m", "1", "--alpha-sq", "1.0", "--R", "0.5",
         "--grid", "4:41", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re_beta,im_beta,value"
    assert len(lines) == 1 + 41 * 41


def test_fidelity_map_output(tmp_path):
    out = tmp_path / "f.csv"
    rc = _run(
        ["fidelity-map", "--n", "1", "--m", "1", "--alpha-sq", "2.0", "--R", "0.6",
         "--grid", "0.5:1:3,0:1:3", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eta_d,eta_s,fidelity"
    rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
    corner = [f for d, s, f in rows if d == 1.0 and s == 1.0]
    assert corner and corner[0] == pytest.approx(1.0, abs=1e-8)


def test_optimize_json(tmp_path):
    out = tmp_path / "opt.json"
    rc = _run(["optimize", "--n", "1", "--m", "0", "--format", "json", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    row = dict(zip(doc["columns"], doc["data"][0]))
    assert row["min_var"] == pytest.approx(0.375, abs=5e-4)


def test_hsd_scan_small(tmp_path):
    out = tmp_path / "h.csv"
    rc = _run(["hsd-scan", "--n", "1", "--m", "2", "--grid", "1:6:4,0.3:0.7:3",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha_sq,R,value"
    vals = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert all(-1e-9 <= v <= 0.5 + 1e-6 for v in vals)


@pytest.mark.parametrize(
    "argv",
    [
        ["wigner", "--n", "1", "--m", "1", "--alpha-sq", "1.0", "--R", "0.5", "--points", "200"],
        ["wigner", "--n", "1", "--m", "1", "--alpha-sq", "1.0", "--R", "0.5", "--grid", "6:200"],
        ["table3", "--points", "200"],
    ],
)
def test_bad_points_exit_code(capsys, argv):
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert "4k + 1" in err
    assert len(err.strip().splitlines()) == 1


def test_dim_only_where_read():
    with pytest.raises(SystemExit) as exc:
        _run(["hsd-scan", "--n", "1", "--m", "2", "--grid", "1:6:4,0.3:0.7:3", "--dim", "2"])
    assert exc.value.code == 2
