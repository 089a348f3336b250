"""Experiment orchestration, CLI surfaces, seeds config, reproduction."""
from __future__ import annotations

import csv
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import netdiffuse
from netdiffuse import harness
from netdiffuse.cli import main
from netdiffuse.errors import (
    ConfigError,
    EdgeListParseError,
    EmptyInputError,
    GraphError,
    MissingDatasetError,
    MissingSeedError,
    UnknownNodeError,
)
from netdiffuse.harness import (
    DATASET_NAMES,
    MODELS,
    ExperimentConfig,
    parse_seeds_file,
    reproduce_paper,
    run_experiment,
    write_report_csv,
)
from netdiffuse.metrics import METRICS_COLUMNS, evaluate_trace
from netdiffuse.models import ModelParams

# sha256 of `netdiffuse run --model cns` on each bundled edge list with
# its seed from data/seeds_example.txt; any change to a cascade round or
# a horizon metric moves it.
CNS_RUN_SHA256 = {
    ("karate", "2"): "641efbfa4af69882fb9bdf12955957d700e8c7d06ad152ce70013faaabac0a6b",
    ("lesmis", "Myriel"): "c3bfc93551cadca695c4bb5f9488d7cdd7a33133f6307f637630ba25e8a76a04",
    ("jazz", "68"): "e759821fae03f9005c149ed9267443473c45b9a01487001b65c7f08ad0e3798c",
    ("polblogs", "693"): "ac9742d0a97fe7cf8fe566117f43574f84186d6e42905827856b1bfab01b775d",
}

# sha256 of multi-run `netdiffuse run` CSVs, per-run rows plus the mean
# block: some karate runs activate nobody, so their horizons repeat
# across runs, as do the 200 polblogs runs' whole-component horizons;
# every lesmis run is cut off by the round cap.
MULTI_RUN_SHA256 = {
    ("karate", "--model ic --ic-p 0.05 --runs 20 --seed-node 2"):
        "37a2d48ce612bef55adafb633a2120454591f3a8b05e2d43159d6feb41a132e8",
    ("polblogs", "--model si --runs 5 --seed-node 693"):
        "1bd9efb23defa63a03c673140d22cd0d535c74676043c1a6bd9ff7a4742e450b",
    ("polblogs", "--model si --runs 200 --seed-node 693"):
        "a8a19e5ad56a985cbd353e4f138afc53b8d26fa9cf484fb87865ab9cbc00b78b",
    ("lesmis", "--model si --max-iterations 3 --runs 4 --seed-node Valjean"):
        "baa3f6adf2044644d17282832fb831d0ac11b76889a37d618355618d27166bc4",
}

# sha256 and the stderr warning of `netdiffuse run` CSVs cut off by
# --max-iterations, one per model, with and without a random stream.
CAPPED_RUN_SHA256 = {
    ("lesmis", "--model cns --max-iterations 2 --seed-node Myriel"):
        ("05dfe5df3fc48ea3041b4ccfcab5008017f1740e19af4c826928b5223f6b0216", "1 of 1"),
    ("lesmis", "--model ic --ic-p 0.3 --max-iterations 2 --runs 3 --seed-node Valjean"):
        ("33c53302beb2b6df9ef1da88fd74e047b585bca6a09ae7652e10ffde36188fb6", "3 of 3"),
    ("karate", "--model ic --max-iterations 2 --seed-node 2"):
        ("e4abe0860e29dffef96e4f3cf684a9fb767bf537404e1c5fc63dbccf480f7d51", "1 of 1"),
    ("polblogs", "--model si --si-beta 0.2 --max-iterations 4 --runs 3 --seed-node 693"):
        ("f5adbefdc60e300ffd9ef0231cc774f596e4310188e327a6ceb6a6b763fca8bc", "3 of 3"),
}

# sha256 of each `netdiffuse reproduce --seeds data/seeds_example.txt` file.
REPRODUCE_SHA256 = {
    "deviations.txt": "84718d82436d0f47fc5c2fed20571ea318773cb2f6f470d7aa818a500c10a53a",
    "fig2_iterations.csv": "f7b729a5517ec5c5bb8d33ab8d8ea993163ec475855ce2d5cc0387a8c789783a",
    "fig3_coverage.csv": "a5145b2ca159e42a8326c1ac0b5dc4321bf32eac6fc4ddff4c3f717235c9c203",
    "fig4_diameter.csv": "6053f51bc43d8134fb77171e53d7edde1839bea113c54190a4069b5e6e5b6b40",
    "fig5_avg_distance.csv": "9d63f345f78df1c31e728fabf8b36bdc36fafd8d5fcf0bc82087a13118776e28",
    "fig6_density.csv": "4579a68e25709a2ac84fb9138098003cf5a391f752f2708491385d6673da2045",
    "fig7_avg_degree.csv": "7cff7181e60e9a09d82ed05a4141c0f1680e49173fbb6109e53fec25b00335a2",
}


def write_graph(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def karate_path(data_dir):
    return str(data_dir / "karate.txt")


class TestConfigValidation:
    def test_runs_require_stochastic_model(self, karate_path):
        with pytest.raises(ConfigError):
            ExperimentConfig(karate_path, "cns", "2", runs=5)

    def test_deterministic_cascade_counts_as_non_stochastic(self, karate_path):
        with pytest.raises(ConfigError):
            ExperimentConfig(karate_path, "ic", "2", ModelParams(ic_probability=1.0), runs=3)

    def test_stochastic_configs_allow_repeats(self, karate_path):
        ExperimentConfig(karate_path, "si", "2", runs=3)
        ExperimentConfig(karate_path, "ic", "2", ModelParams(ic_probability=0.5), runs=3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model": "bogus"},
            {"runs": 0},
            {"params": {"ic_probability": 1.5}},
            {"params": {"si_beta": -0.1}},
            {"max_iterations": 0},
        ],
    )
    def test_rejected_values(self, karate_path, kwargs):
        base = {"graph_path": karate_path, "model": "si", "seed_node": "2"}
        kwargs = dict(kwargs)
        with pytest.raises(ConfigError):
            params = ModelParams(**kwargs.pop("params", {}))
            ExperimentConfig(**{**base, **kwargs, "params": params})

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"ic_probability": 2.0}, "ic probability not in [0, 1]: 2.0"),
            ({"si_beta": -1.0}, "si beta not in [0, 1]: -1.0"),
            ({"ic_probability": float("nan")}, "ic probability not in [0, 1]: nan"),
            ({"si_beta": float("nan")}, "si beta not in [0, 1]: nan"),
        ],
    )
    def test_model_params_range_is_a_config_error(self, kwargs, message):
        with pytest.raises(ConfigError) as exc:
            ModelParams(**kwargs)
        assert str(exc.value) == message

    def test_config_carries_its_model_params(self, karate_path):
        config = ExperimentConfig(karate_path, "ic", "2", ModelParams(0.25, rng_seed=9))
        assert config.params == ModelParams(0.25, 0.5, 9)
        assert config.is_stochastic

    def test_dataset_name_defaults_to_stem(self, karate_path):
        config = ExperimentConfig(karate_path, "cns", "2")
        assert config.dataset == "karate"


class TestRunExperiment:
    def test_karate_cns_speed(self, karate_path):
        report = run_experiment(ExperimentConfig(karate_path, "cns", "2"))
        assert len(report.results["cns"].traces[0].iterations) == 3

    def test_seed_lost_to_reduction_names_it(self, tmp_path):
        path = write_graph(tmp_path / "two.txt", "a b\nb c\nx y\n")
        with pytest.raises(UnknownNodeError, match="largest-connected-component"):
            run_experiment(ExperimentConfig(path, "cns", "x"))

    def test_unknown_seed_plain_error(self, tmp_path):
        path = write_graph(tmp_path / "two.txt", "a b\n")
        with pytest.raises(UnknownNodeError, match="not in the graph"):
            run_experiment(ExperimentConfig(path, "cns", "zz"))

    def test_mean_series_with_padding(self, karate_path):
        config = ExperimentConfig(karate_path, "si", "2", ModelParams(si_beta=0.5), runs=4)
        report = run_experiment(config)
        result = report.results["si"]
        lengths = [len(rows) for rows in result.metrics]
        longest = max(lengths)
        assert result.mean_series is not None
        assert len(result.mean_series) == longest
        assert result.padded_runs is not None
        for t, padded in enumerate(result.padded_runs, start=1):
            assert padded == sum(1 for n in lengths if n < t)
        # padded runs hold their final state, so the mean coverage at the
        # last aligned iteration is the mean of the runs' final coverages
        finals = [rows[-1].coverage for rows in result.metrics]
        # mean rows are in IterationMetrics.values() order
        last = dict(zip(METRICS_COLUMNS[5:], result.mean_series[-1], strict=True))
        assert last["coverage"] == pytest.approx(sum(finals) / len(finals))
        # a finished run contributes no further activations
        assert last["new_active"] <= max(
            len(t.iterations[-1]) for t in result.traces
        )

    def test_run_that_activates_nobody_pads_with_seed_state(self, karate_path):
        config = ExperimentConfig(karate_path, "ic", "2", ModelParams(ic_probability=0.05), runs=20)
        report = run_experiment(config)
        result = report.results["ic"]
        assert any(not rows for rows in result.metrics)
        seed_row = evaluate_trace(result.traces[0], include_initial=True)[0]
        finals = [rows[-1] if rows else seed_row for rows in result.metrics]
        last = dict(zip(METRICS_COLUMNS[5:], result.mean_series[-1], strict=True))
        assert last["cum_active"] == pytest.approx(
            sum(row.horizon_nodes for row in finals) / len(finals)
        )
        assert last["coverage"] == pytest.approx(
            sum(row.coverage for row in finals) / len(finals)
        )

    def test_report_rows_include_mean_block(self, karate_path):
        config = ExperimentConfig(karate_path, "si", "2", runs=2)
        report = run_experiment(config)
        buf = io.StringIO()
        write_report_csv(report, buf)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        runs = {row["run"] for row in rows}
        assert runs == {"1", "2", "mean"}
        for row in rows:
            if row["run"] == "mean":
                float(row["new_active"])  # fractional cells parse as numbers


def _count_calls(monkeypatch, *names):
    """Replace each ``netdiffuse.harness`` global in ``names`` with a
    counting wrapper; returns the live counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(harness, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    return calls


class TestRunnerLookup:
    """Both entry points call the runners and ``evaluate_trace`` through
    the harness module's globals at call time, so a wrapper installed
    there (as ``perfbench/tracer.py`` installs one) sees every call."""

    def test_run_experiment(self, monkeypatch, karate_path):
        calls = _count_calls(monkeypatch, "run_si", "evaluate_trace")
        run_experiment(ExperimentConfig(karate_path, "si", "2", runs=3))
        assert calls == {"run_si": 3, "evaluate_trace": 3}

    def test_reproduce_paper(self, monkeypatch, data_dir, tmp_path):
        calls = _count_calls(monkeypatch, "run_si", "evaluate_trace")
        seeds = parse_seeds_file(data_dir / "seeds_example.txt")
        reproduce_paper(data_dir, tmp_path, seeds)
        assert calls == {"run_si": 4, "evaluate_trace": 12}


class TestSeedsFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("# comment\n\nkarate=2\nlesmis = Myriel\n", encoding="utf-8")
        assert parse_seeds_file(path) == {"karate": "2", "lesmis": "Myriel"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("karate\n", encoding="utf-8")
        with pytest.raises(GraphError, match="line 1"):
            parse_seeds_file(path)

    def test_unknown_dataset(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_text("karat=2\n", encoding="utf-8")
        with pytest.raises(GraphError, match="unknown dataset"):
            parse_seeds_file(path)

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "seeds.txt"
        path.write_bytes(b"karate=2\nlesmis=\xff\n")
        with pytest.raises(GraphError) as exc:
            parse_seeds_file(path)
        assert type(exc.value) is GraphError
        assert str(exc.value) == f"seeds file {path}, line 2: not valid UTF-8"

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"# c\nkarate\n", "line 2: expected 'dataset=seed label'"),
            (
                b"karate=2\x0c\r\nkarat=2\n",
                "line 2: unknown dataset 'karat' (known: karate, lesmis, jazz, polblogs)",
            ),
        ],
    )
    def test_message(self, tmp_path, raw, message):
        # A form feed ends no line; every message carries the path once.
        path = tmp_path / "seeds.txt"
        path.write_bytes(raw)
        with pytest.raises(GraphError) as exc:
            parse_seeds_file(path)
        assert type(exc.value) is GraphError
        assert str(exc.value) == f"seeds file {path}, {message}"


class TestReproduce:
    def test_missing_datasets_listed(self, tmp_path):
        with pytest.raises(MissingDatasetError) as exc:
            reproduce_paper(tmp_path, tmp_path / "out")
        assert set(exc.value.names) == {"karate", "lesmis", "jazz", "polblogs"}

    def test_missing_seeds_listed(self, data_dir, tmp_path):
        with pytest.raises(MissingSeedError) as exc:
            reproduce_paper(data_dir, tmp_path / "out", seeds={})
        # karate falls back to its default origin, the rest do not guess
        assert exc.value.names == ["lesmis", "jazz", "polblogs"]

    @staticmethod
    def seed_cut_off(tmp_path):
        """Four two-component datasets; karate's seed is in the smaller one."""
        for name in DATASET_NAMES:
            (tmp_path / f"{name}.txt").write_text("a b\nb c\nx y\n", encoding="utf-8")
        return {"karate": "x", "lesmis": "a", "jazz": "a", "polblogs": "a"}

    def test_seed_cut_off_by_reduction(self, tmp_path):
        seeds = self.seed_cut_off(tmp_path)
        with pytest.raises(UnknownNodeError, match="^dataset karate: .*largest-connected-component"):
            reproduce_paper(tmp_path, tmp_path / "out", seeds)

    def test_seed_cut_off_by_reduction_cli(self, tmp_path):
        seeds = self.seed_cut_off(tmp_path)
        seeds_file = tmp_path / "seeds.txt"
        seeds_file.write_text("".join(f"{k}={v}\n" for k, v in seeds.items()), encoding="utf-8")
        code, err = _run_cli(
            ["reproduce", "--data-dir", str(tmp_path), "--out-dir", str(tmp_path / "out"),
             "--seeds", str(seeds_file)]
        )
        assert code == 2
        assert err.splitlines() == [
            "netdiffuse: dataset karate: seed node 'x' was removed by the "
            "largest-connected-component reduction (5 -> 3 nodes)"
        ]

    @pytest.mark.parametrize("jazz, error, message", [
        (b"a b c\n", EdgeListParseError, "line 1: expected two tokens, got 3: 'a b c'"),
        (b"# no edges\na a\n", EmptyInputError, "edge list contains no usable edges"),
        (b"a b\n\xff c\n", EdgeListParseError, "line 2: not valid UTF-8"),
    ], ids=["parse-error", "no-usable-edges", "invalid-utf8"])
    def test_load_error_names_the_dataset(self, tmp_path, jazz, error, message):
        for name in DATASET_NAMES:
            (tmp_path / f"{name}.txt").write_text("a b\nb c\n", encoding="utf-8")
        (tmp_path / "jazz.txt").write_bytes(jazz)
        seeds = dict.fromkeys(DATASET_NAMES, "a")
        with pytest.raises(error) as exc:
            reproduce_paper(tmp_path, tmp_path / "out", seeds)
        assert str(exc.value) == f"dataset jazz: {message}"
        seeds_file = tmp_path / "seeds.txt"
        seeds_file.write_text("".join(f"{k}=a\n" for k in seeds), encoding="utf-8")
        code, err = _run_cli(
            ["reproduce", "--data-dir", str(tmp_path), "--out-dir", str(tmp_path / "out"),
             "--seeds", str(seeds_file)]
        )
        assert code == 2
        assert err.splitlines() == [f"netdiffuse: dataset jazz: {message}"]


class TestCli:
    def test_run_writes_csv(self, karate_path, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        code = main(
            [
                "run",
                "--graph",
                karate_path,
                "--model",
                "cns",
                "--seed-node",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("dataset,model,run")
        assert len(lines) == 4

    def test_run_stdout(self, karate_path, capsys):
        code = main(
            ["run", "--graph", karate_path, "--model", "ic", "--seed-node", "2",
             "--out", "-"]
        )
        assert code == 0
        assert "karate,ic,1,2,3" in capsys.readouterr().out

    def test_usage_error_is_exit_1(self, capsys):
        assert main(["run", "--model", "cns"]) == 1
        assert main([]) == 1
        assert main(["run", "--graph", "g", "--model", "nope",
                     "--seed-node", "a", "--out", "-"]) == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--ic-p", "2"], "ic probability not in [0, 1]: 2.0"),
            (["--si-beta", "-1"], "si beta not in [0, 1]: -1.0"),
            (["--ic-p", "nan"], "ic probability not in [0, 1]: nan"),
            (["--si-beta", "nan"], "si beta not in [0, 1]: nan"),
        ],
    )
    def test_probability_out_of_range_is_exit_1(self, karate_path, capsys, flags, message):
        code = main(
            ["run", "--graph", karate_path, "--model", "cns", "--seed-node", "2",
             "--out", "-", *flags]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"netdiffuse: {message}\n"

    @pytest.mark.parametrize("dataset, seed", sorted(CNS_RUN_SHA256))
    def test_cns_run_csv_byte_identical(self, data_dir, tmp_path, dataset, seed):
        out = tmp_path / "cns.csv"
        code = main(
            ["run", "--graph", str(data_dir / f"{dataset}.txt"), "--model", "cns",
             "--seed-node", seed, "--out", str(out)]
        )
        assert code == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == CNS_RUN_SHA256[(dataset, seed)]

    @pytest.mark.parametrize("dataset, flags", sorted(MULTI_RUN_SHA256))
    def test_multi_run_csv_byte_identical(self, data_dir, tmp_path, dataset, flags):
        out = tmp_path / "runs.csv"
        code, _ = _run_cli(
            ["run", "--graph", str(data_dir / f"{dataset}.txt"), *flags.split(),
             "--out", str(out)]
        )
        assert code == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == MULTI_RUN_SHA256[(dataset, flags)]

    @pytest.mark.parametrize("dataset, flags", sorted(CAPPED_RUN_SHA256))
    def test_capped_run_csv_byte_identical(self, data_dir, tmp_path, dataset, flags):
        out = tmp_path / "capped.csv"
        code, err = _run_cli(
            ["run", "--graph", str(data_dir / f"{dataset}.txt"), *flags.split(),
             "--out", str(out)]
        )
        digest, counts = CAPPED_RUN_SHA256[(dataset, flags)]
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert err == f"netdiffuse: warning: {counts} runs stopped with nodes unreached\n"

    def test_runs_on_deterministic_model_is_usage_error(self, karate_path, capsys):
        code = main(
            ["run", "--graph", karate_path, "--model", "cns", "--seed-node", "2",
             "--runs", "3", "--out", "-"]
        )
        assert code == 1

    def test_data_errors_are_exit_2(self, tmp_path, karate_path, capsys):
        assert main(
            ["run", "--graph", str(tmp_path / "absent.txt"), "--model", "cns",
             "--seed-node", "2", "--out", "-"]
        ) == 2
        assert main(
            ["run", "--graph", karate_path, "--model", "cns",
             "--seed-node", "zz", "--out", "-"]
        ) == 2
        assert main(
            ["reproduce", "--data-dir", str(tmp_path), "--out-dir",
             str(tmp_path / "out")]
        ) == 2
        err = capsys.readouterr().err
        assert "missing datasets" in err

    def test_non_utf8_inputs_are_exit_2(self, tmp_path, capsys):
        graph = tmp_path / "bad.txt"
        graph.write_bytes(b"a b\n\xff c\n")
        seeds = tmp_path / "seeds.txt"
        seeds.write_bytes(b"karate=\xff\n")
        assert main(["run", "--graph", str(graph), "--model", "cns",
                     "--seed-node", "a", "--out", "-"]) == 2
        assert main(["tie-table", "--graph", str(graph), "--out", "-"]) == 2
        assert main(["reproduce", "--data-dir", str(tmp_path), "--out-dir",
                     str(tmp_path / "out"), "--seeds", str(seeds)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3
        assert all(line.startswith("netdiffuse: ") for line in err)

    def test_runs_without_activations_exit_0(self, karate_path, tmp_path):
        out = tmp_path / "ic.csv"
        code = main(
            ["run", "--graph", karate_path, "--model", "ic", "--ic-p", "0.05",
             "--runs", "20", "--seed-node", "2", "--out", str(out)]
        )
        assert code == 0
        assert any(line.startswith("karate,ic,mean,") for line in out.read_text().splitlines())

    def test_truncated_runs_warn_on_stderr(self, karate_path, capsys):
        code = main(
            ["run", "--graph", karate_path, "--model", "si", "--si-beta", "0",
             "--runs", "2", "--seed-node", "2", "--out", "-"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == ",".join(METRICS_COLUMNS) + "\n"
        assert captured.err == (
            "netdiffuse: warning: 2 of 2 runs stopped with nodes unreached\n"
        )

    def test_complete_runs_print_nothing_on_stderr(self, karate_path, capsys):
        code = main(
            ["run", "--graph", karate_path, "--model", "si", "--runs", "2",
             "--seed-node", "2", "--out", "-"]
        )
        assert code == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "model, flags, ignored",
        [
            ("cns", ["--si-beta", "0.1", "--ic-p", "0.2", "--rng-seed", "7"],
             "--ic-p, --si-beta, --rng-seed"),
            ("ic", ["--si-beta", "0.1", "--rng-seed", "7"], "--si-beta"),
        ],
    )
    def test_flags_the_model_does_not_read_warn(
        self, karate_path, tmp_path, capsys, model, flags, ignored
    ):
        plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
        base = ["run", "--graph", karate_path, "--model", model, "--seed-node", "2"]
        assert main([*base, "--rng-seed", "7", "--out", str(plain)]) == 0
        capsys.readouterr()
        assert main([*base, *flags, "--out", str(flagged)]) == 0
        assert capsys.readouterr().err == f"netdiffuse: warning: model {model} ignores {ignored}\n"
        # the ignored flags change no byte of the output
        assert flagged.read_bytes() == plain.read_bytes()

    def test_flags_the_model_reads_warn_about_nothing(self, karate_path, capsys):
        code = main(
            ["run", "--graph", karate_path, "--model", "si", "--si-beta", "0.3",
             "--rng-seed", "7", "--seed-node", "2", "--out", "-"]
        )
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_tie_table(self, karate_path, tmp_path):
        out = tmp_path / "ties.csv"
        code = main(["tie-table", "--graph", karate_path, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "v,u,term_cn,term_v_side,term_u_side,term_sigma,term_ww,rho,phi"
        assert len(lines) == 1 + 2 * 78

    def test_run_determinism_karate_all_models(self, karate_path, tmp_path):
        for model in ("cns", "ic", "si"):
            outputs = []
            for tag in ("a", "b"):
                out = tmp_path / f"{model}_{tag}.csv"
                code = main(
                    ["run", "--graph", karate_path, "--model", model,
                     "--seed-node", "2", "--rng-seed", "42", "--out", str(out)]
                )
                assert code == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def out_dir(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("repro")
    seeds = {"lesmis": "Myriel", "jazz": "68", "polblogs": "693"}
    reproduce_paper(data_dir, out, seeds)
    return out


class TestReproduceOutputs:
    def test_all_files_written(self, out_dir):
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "deviations.txt",
            "fig2_iterations.csv",
            "fig3_coverage.csv",
            "fig4_diameter.csv",
            "fig5_avg_distance.csv",
            "fig6_density.csv",
            "fig7_avg_degree.csv",
        ]

    def test_karate_ic_terminal_density_is_whole_graph(self, out_dir):
        rows = list(csv.DictReader((out_dir / "fig6_density.csv").open()))
        karate_ic = [r for r in rows if r["dataset"] == "karate" and r["model"] == "ic"]
        assert karate_ic[-1]["density"] == "0.139037"

    def test_deviation_report_covers_every_entry(self, out_dir):
        from netdiffuse import golden

        text = (out_dir / "deviations.txt").read_text()
        needles = [
            f"fig2 {dataset} {model} total iterations:"
            for dataset, model in golden.FIG2_ITERATIONS
        ]
        needles += [
            f"{figure} {dataset} {model} iteration {iteration}:"
            for (figure, dataset, model), points in golden.SERIES.items()
            for iteration, _ in points
        ]
        needles += [f"table1 {dataset} average degree:" for dataset in golden.TABLE1_AVG_DEGREE]
        for needle in needles:
            assert needle in text, f"deviation report missing {needle}"

    def test_fig2_covers_all_dataset_model_pairs(self, out_dir):
        rows = list(csv.DictReader((out_dir / "fig2_iterations.csv").open()))
        assert len(rows) == 12
        karate_cns = [r for r in rows if r["dataset"] == "karate" and r["model"] == "cns"]
        assert karate_cns[0]["iterations"] == "3"


@pytest.fixture(scope="module")
def example_out_dir(data_dir, tmp_path_factory):
    """`netdiffuse reproduce` on the bundled data with its example seeds."""
    out = tmp_path_factory.mktemp("repro_example")
    code, _ = _run_cli(
        ["reproduce", "--data-dir", str(data_dir), "--out-dir", str(out),
         "--seeds", str(data_dir / "seeds_example.txt")]
    )
    assert code == 0
    return out


class TestReproduceMatchesRun:
    @pytest.mark.parametrize("name", sorted(REPRODUCE_SHA256))
    def test_file_byte_identical(self, example_out_dir, name):
        digest = hashlib.sha256((example_out_dir / name).read_bytes()).hexdigest()
        assert digest == REPRODUCE_SHA256[name]

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("dataset", ["karate", "lesmis"])
    def test_figure_cells_equal_run_cells(self, data_dir, example_out_dir, tmp_path,
                                          dataset, model):
        """`run` with its defaults (ic-p 1, si-beta 0.5, rng-seed 42) is run 0 of
        the configuration `reproduce` uses, so their cells must agree."""
        seed = parse_seeds_file(data_dir / "seeds_example.txt")[dataset]
        out = tmp_path / "run.csv"
        code, _ = _run_cli(
            ["run", "--graph", str(data_dir / f"{dataset}.txt"), "--model", model,
             "--seed-node", seed, "--out", str(out)]
        )
        assert code == 0
        with out.open(newline="") as fh:
            run_rows = list(csv.DictReader(fh))
        with (example_out_dir / "fig2_iterations.csv").open(newline="") as fh:
            (count,) = [r["iterations"] for r in csv.DictReader(fh)
                        if (r["dataset"], r["model"]) == (dataset, model)]
        assert count == str(len(run_rows))
        for figure in ("fig3", "fig4", "fig5", "fig6", "fig7"):
            (path,) = example_out_dir.glob(f"{figure}_*.csv")
            metric = path.stem.partition("_")[2]
            with path.open(newline="") as fh:
                cells = [(r["iteration"], r[metric]) for r in csv.DictReader(fh)
                         if (r["dataset"], r["model"]) == (dataset, model)]
            assert cells == [(r["iteration"], r[metric]) for r in run_rows]


# Inputs for the robustness properties: raw bytes, and text built from a
# few tokens so that parsing often succeeds and the run goes further.
_LABELS = ["a", "b", "c", "é"]
_edge_line = st.tuples(st.sampled_from(_LABELS), st.sampled_from(_LABELS)).map(" ".join)
_noise_line = st.sampled_from(["", "# note", "a", "a b c", "\t", "a\x00 b", "\u2028"])
edge_list_bytes = st.one_of(
    st.binary(max_size=120),
    st.lists(_edge_line, min_size=1, max_size=8).map("\n".join).map(str.encode),
    st.lists(st.one_of(_edge_line, _edge_line, _noise_line), max_size=10)
    .map("\n".join)
    .map(str.encode),
)


@st.composite
def seeds_file_bytes(draw):
    if draw(st.sampled_from([True, False, False, False])):
        return draw(st.binary(max_size=60))
    names = list(DATASET_NAMES)
    change = draw(st.sampled_from([None, None, None, "drop", "bogus"]))
    if change == "drop":
        names.remove(draw(st.sampled_from(DATASET_NAMES)))
    elif change == "bogus":
        names.append("bogus")
    # One label for every dataset: the same graph backs all four names.
    label = draw(st.sampled_from(_LABELS + ["zz"]))
    return "".join(f"{name}={label}\n" for name in names).encode()


def _optional(*values):
    return st.one_of(st.none(), st.none(), st.sampled_from(values))


run_flags = st.fixed_dictionaries(
    {
        "--model": st.sampled_from(["cns", "ic", "si", "bogus"]),
        "--seed-node": st.sampled_from(_LABELS + ["zz"]),
        "--ic-p": _optional("0.5", "0", "1", "2", "nan"),
        "--si-beta": _optional("1", "0.3", "0", "-1", "nan"),
        "--rng-seed": _optional("-3", "7", "x"),
        "--runs": _optional("2", "1", "0", "x"),
        "--max-iterations": _optional("1", "3", "0", "x"),
    }
)


def _flag_list(flags):
    return [part for key, value in flags.items() if value is not None for part in (key, value)]


def _run_cli(argv):
    """(exit code, stderr) of one in-process CLI call."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_clean_exit(code, err):
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert len(err.splitlines()) <= 1, err


class TestCliRobustness:
    """Any input file and flag combination ends with exit 0, 1 or 2 and
    at most one stderr line."""

    @settings(max_examples=60, deadline=None)
    @given(edge_list_bytes, run_flags, st.booleans())
    def test_run(self, graph_bytes, flags, to_stdout):
        with tempfile.TemporaryDirectory() as tmp:
            graph = Path(tmp, "g.txt")
            graph.write_bytes(graph_bytes)
            out = "-" if to_stdout else str(Path(tmp, "out.csv"))
            argv = ["run", "--graph", str(graph), "--out", out, *_flag_list(flags)]
            code, err = _run_cli(argv)
        _assert_clean_exit(code, err)

    @settings(max_examples=25, deadline=None)
    @given(edge_list_bytes, st.booleans())
    def test_tie_table(self, graph_bytes, to_stdout):
        with tempfile.TemporaryDirectory() as tmp:
            graph = Path(tmp, "g.txt")
            graph.write_bytes(graph_bytes)
            out = "-" if to_stdout else str(Path(tmp, "ties.csv"))
            code, err = _run_cli(["tie-table", "--graph", str(graph), "--out", out])
        _assert_clean_exit(code, err)

    @settings(max_examples=30, deadline=None)
    @given(
        edge_list_bytes,
        seeds_file_bytes(),
        st.one_of(st.none(), st.none(), st.none(), st.sampled_from(DATASET_NAMES)),
        st.sampled_from([True, True, True, False]),
    )
    def test_reproduce(self, graph_bytes, seeds_bytes, absent, with_seeds):
        with tempfile.TemporaryDirectory() as tmp:
            for name in DATASET_NAMES:
                if name != absent:
                    Path(tmp, f"{name}.txt").write_bytes(graph_bytes)
            argv = ["reproduce", "--data-dir", tmp, "--out-dir", str(Path(tmp, "out"))]
            if with_seeds:
                Path(tmp, "seeds.txt").write_bytes(seeds_bytes)
                argv += ["--seeds", str(Path(tmp, "seeds.txt"))]
            code, err = _run_cli(argv)
        _assert_clean_exit(code, err)


def test_reproduce_on_resized_datasets_prints_one_line(tmp_path):
    """Datasets whose sizes differ from the registry give one stderr line.

    Runs the CLI in a fresh interpreter: under pytest the root logger has
    handlers, which would hide log records that reach stderr in a real run.
    """
    for name in DATASET_NAMES:
        (tmp_path / f"{name}.txt").write_text("a b\nb c\n", encoding="utf-8")
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("karate=a\nlesmis=a\njazz=b\npolblogs=c\n", encoding="utf-8")
    src = str(Path(netdiffuse.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "netdiffuse.cli", "reproduce", "--data-dir", str(tmp_path),
         "--out-dir", str(tmp_path / "out"), "--seeds", str(seeds)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stderr.splitlines() == [
        "netdiffuse: warning: "
        "dataset karate: loaded 3 nodes / 2 edges, registry expects 34 / 78; "
        "dataset lesmis: loaded 3 nodes / 2 edges, registry expects 77 / 254; "
        "dataset jazz: loaded 3 nodes / 2 edges, registry expects 198 / 2742; "
        "dataset polblogs: loaded 3 nodes / 2 edges, registry expects 1224 / 16718"
    ]
