import csv
import pathlib
import xml.dom.minidom

import numpy as np
import pytest

from depthlab.cli import config_cells, load_config, main, parse_config_text
from depthlab.simlab import read_records_csv

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def one_col(tmp_path):
    f = tmp_path / "one_col.csv"
    f.write_text("1\n2\n3\n")
    return str(f)


class TestDepthCommand:
    def test_tukey(self, one_col, capsys):
        code, out, _ = run_cli(["depth", "tukey", "--theta", "2",
                                "--data", one_col], capsys)
        assert code == 0
        assert out.strip() == "0.666667"

    def test_ls2(self, one_col, capsys):
        code, out, _ = run_cli(["depth", "ls2", "--mu", "2", "--sigma", "1",
                                "--data", one_col], capsys)
        assert code == 0
        assert out.strip() == "0.333333"

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run_cli(["depth", "tukey", "--theta", "2",
                                "--data", "/nonexistent.csv"], capsys)
        assert code == 3
        assert "error" in err

    def test_scatter_gaussian(self, capsys):
        code, out, _ = run_cli(["depth", "scatter-gaussian", "--gamma",
                                "0.4549364231195717,0.4549364231195717"],
                               capsys)
        assert code == 0
        assert out.strip() == "0.500000"

    @pytest.mark.parametrize("gamma, e, eps, r, printed", [
        ("1.8,0.4", "0.6,0.8", "0.1", "1.7", "0.161741"),
        ("2,1,0.5", "0.6666666666666666,0.6666666666666666,"
                    "0.3333333333333333", "0.2", "1.2", "0.125839"),
    ])
    def test_pointmass_off_eigenvectors(self, gamma, e, eps, r, printed,
                                        capsys):
        code, out, _ = run_cli(["depth", "pointmass", "--gamma", gamma,
                                "--e", e, "--epsilon", eps, "--r", r], capsys)
        assert code == 0
        assert out.strip() == printed

    def test_regression(self, tmp_path, capsys):
        f = tmp_path / "reg.csv"
        f.write_text("1,1\n1,-1\n1,0\n")
        code, out, _ = run_cli(["depth", "regression", "--beta", "0",
                                "--data", str(f)], capsys)
        assert code == 0
        assert out.strip() == "0.666667"


class TestMaxbiasCommand:
    def test_grid_rows(self, capsys):
        code, out, _ = run_cli(["maxbias", "--curve", "tukey",
                                "--grid", "0:0.30:0.05"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "epsilon,value,curve_id"
        assert len(lines) == 9  # header + 7 rows + breakdown footer
        assert lines[-1].startswith("# breakdown=")

    def test_regression_grid_values(self, capsys):
        code, out, _ = run_cli(["maxbias", "--curve", "regression",
                                "--grid", "0:0.3:0.1"], capsys)
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:-1]]
        assert [r[1] for r in rows] == ["0", "0.363970234266", "1",
                                        "4.38128626753"]

    def test_breakdown_value(self, capsys):
        code, out, _ = run_cli(["maxbias", "--curve", "ls2-breakdown"], capsys)
        assert code == 0
        val = float(out.strip())
        assert 0.2 < val < 0.25
        assert len(out.strip().split(".")[1]) == 10

    def test_domain_violation(self, capsys):
        code, _, err = run_cli(["maxbias", "--curve", "scatter-envelope",
                                "--grid", "0:0.35:0.05"], capsys)
        assert code == 2
        assert "0.333333" in err

    def test_unknown_curve(self, capsys):
        code, _, _ = run_cli(["maxbias", "--curve", "nope"], capsys)
        assert code == 2

    def test_svg_output(self, tmp_path, capsys):
        svg_path = tmp_path / "curve.svg"
        code, _, _ = run_cli(["maxbias", "--curve", "scatter-envelope",
                              "--grid", "0:0.3:0.05",
                              "--out", str(tmp_path / "c.csv"),
                              "--svg", str(svg_path)], capsys)
        assert code == 0
        doc = xml.dom.minidom.parse(str(svg_path))
        assert doc.documentElement.tagName == "svg"
        text = svg_path.read_text()
        assert "http" not in text.replace("http://www.w3.org/2000/svg", "")


class TestConfig:
    def test_parse_lists_and_comments(self):
        cfg = parse_config_text("a = [1, 2]\n# comment\nb = 0.5\nc = x\n"
                                "d = true\n")
        assert cfg == {"a": [1, 2], "b": 0.5, "c": "x", "d": True}

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("nope = 1\n")
        with pytest.raises(ValueError):
            load_config(str(f))

    def test_unknown_estimator_rejected(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("estimators = [SCOV, TYLER]\n")
        with pytest.raises(ValueError):
            load_config(str(f))

    def test_default_grid_matches_benchmark(self):
        cfg = load_config()
        cells = config_cells(cfg)
        assert {(c.p, c.n) for c in cells} == {(2, 20), (2, 80), (5, 50),
                                               (5, 200)}
        assert {c.epsilon for c in cells} == {0.1, 0.2}
        assert sorted({c.k for c in cells}) == [0, 1, 5, 10, 15, 20, 25]
        assert cfg["replicates"] == 50

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("DEPTHLAB_SEED", "777")
        assert load_config()["seed"] == 777

    def test_shipped_configs_load(self, monkeypatch):
        monkeypatch.delenv("DEPTHLAB_SEED", raising=False)
        counts = {}
        for path in sorted(CONFIG_DIR.glob("*.cfg")):
            cells = config_cells(load_config(str(path)))
            counts[path.stem] = len(cells)
            if path.stem == "large_tier":
                assert (2, 1000) in {(c.p, c.n) for c in cells}
        assert counts == {"desk": 56, "efficiency_p2_n50": 1,
                          "large_tier": 168, "table_p2_n20": 14}


class TestSimulateReport:
    @pytest.fixture
    def tiny_cfg(self, tmp_path):
        f = tmp_path / "tiny.cfg"
        f.write_text("p = [2]\nn = [20]\nepsilon = [0.1]\nk = [0, 25]\n"
                     "replicates = 5\nestimators = [SCOV, MM]\nseed = 31\n")
        return str(f)

    def test_pipeline_deterministic(self, tiny_cfg, tmp_path, capsys):
        r1 = tmp_path / "r1.csv"
        r2 = tmp_path / "r2.csv"
        code, out, _ = run_cli(["simulate", "--config", tiny_cfg,
                                "--out", str(r1)], capsys)
        assert code == 0
        assert "cell p=2 n=20 eps=0.1 k=0 done" in out
        code, _, _ = run_cli(["simulate", "--config", tiny_cfg,
                              "--out", str(r2)], capsys)
        assert code == 0
        assert r1.read_bytes() == r2.read_bytes()

        code, _, _ = run_cli(["simulate", "--config", tiny_cfg,
                              "--out", str(r1), "--resume"], capsys)
        assert code == 0
        assert r1.read_bytes() == r2.read_bytes()

        out_dir = tmp_path / "report"
        code, _, _ = run_cli(["report", str(r1), "--out-dir", str(out_dir)],
                             capsys)
        assert code == 0
        agg = out_dir / "aggregate.csv"
        with open(agg, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["estimator", "p", "n", "epsilon", "measure",
                           "b_hat_log", "bcn_hat_log", "failures"]
        assert len(rows) == 3
        svgs = sorted(out_dir.glob("*.svg"))
        assert any("bias_vs_k" in s.name for s in svgs)
        assert any("boxplot" in s.name for s in svgs)
        for s in svgs:
            xml.dom.minidom.parse(str(s))

        # Schema closure: the records CSV re-parses through the library reader.
        back = read_records_csv(str(r1))
        assert len(back) == 2 * 2 * 5

    @pytest.fixture
    def cut_records(self, tmp_path):
        # The last row stops mid-field, as when a run is killed mid-write.
        f = tmp_path / "cut.csv"
        f.write_text("estimator,p,n,epsilon,k,replicate,lambda1,lambdap,b,cn,"
                     "flag\nSCOV,2,20,0.1,0,0,1.5,0.7,1.5,2.1,0\n"
                     "SCOV,2,20,0.1,0,1,1.2")
        return f

    def test_resume_truncated_records_is_data_error(self, tiny_cfg,
                                                    cut_records, capsys):
        before = cut_records.read_bytes()
        code, _, err = run_cli(["simulate", "--config", tiny_cfg, "--out",
                                str(cut_records), "--resume"], capsys)
        assert code == 3
        assert f"{cut_records}, line 3" in err
        assert cut_records.read_bytes() == before

    def test_report_truncated_records_is_data_error(self, cut_records,
                                                    tmp_path, capsys):
        code, _, err = run_cli(["report", str(cut_records), "--out-dir",
                                str(tmp_path / "report")], capsys)
        assert code == 3
        assert f"{cut_records}, line 3" in err

    def test_report_missing_records(self, tmp_path, capsys):
        code, _, _ = run_cli(["report", str(tmp_path / "none.csv")], capsys)
        assert code == 3
