import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from ccg import evaluation, training
from ccg.cli import ABLATION_FLAGS, apply_ablations, build_config, main
from ccg.data import Dataset, load_dataset, save_dataset
from ccg.training import TrainConfig


def run(argv):
    return main(argv)


def test_import_loads_no_scipy():
    # ccg runs on numpy alone; scipy is the tests' sigmoid oracle only
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = "import ccg.cli, sys; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0


def read(path):
    with open(path) as fh:
        return fh.read()


def _no_step(self, grads):
    # not an error main() turns into an exit code, so the test fails
    raise AssertionError("an optimizer step was taken")


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = run(["gen", "--labels", "4", "--dim", "16", "--samples", "60",
              "--envs", "2", "--seed", "3", "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def run_dir(gen_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = run(["train", "--data", str(gen_dir / "env0.jsonl"),
              "--world", str(gen_dir / "world.json"),
              "--epochs", "3", "--warmup", "1", "--players", "2",
              "--config", str(_tiny_config(tmp_path_factory)),
              "--out", str(out)])
    assert rc == 0
    return out


def _tiny_config(tmp_path_factory):
    cfg = tmp_path_factory.mktemp("cfg") / "cfg.json"
    cfg.write_text(json.dumps({"hidden": 4, "enc_dim": 4, "batch_size": 16}))
    return cfg


class TestGen:
    def test_writes_env_files_and_world(self, gen_dir):
        assert (gen_dir / "env0.jsonl").exists()
        assert (gen_dir / "env1.jsonl").exists()
        assert (gen_dir / "world.json").exists()

    def test_rerun_is_byte_identical(self, gen_dir, tmp_path):
        out2 = tmp_path / "again"
        rc = run(["gen", "--labels", "4", "--dim", "16", "--samples", "60",
                  "--envs", "2", "--seed", "3", "--out", str(out2)])
        assert rc == 0
        for name in ("env0.jsonl", "env1.jsonl", "world.json"):
            assert read(gen_dir / name) == read(out2 / name)

    def test_capacity_error_exits_1(self, tmp_path, capsys):
        rc = run(["gen", "--labels", "10", "--dim", "4", "--samples", "5",
                  "--out", str(tmp_path / "x")])
        assert rc == 1

    # --edge-density 7 would make every pair an edge and -3 none; each case
    # of another flag is named by it
    @pytest.mark.parametrize("flag,value", [
        *(pytest.param("--edge-density", v, id=v) for v in ("7", "-3", "nan")),
        ("--seed", "-1"), ("--samples", "0"), ("--envs", "0"),
        ("--labels", "1"), ("--dim", "0")])
    def test_edge_density_outside_0_1_exits_1(self, tmp_path, capsys,
                                              flag, value):
        opts = {"--labels": "4", "--dim": "16", "--samples": "5", flag: value}
        rc = run(["gen", *(t for kv in opts.items() for t in kv),
                  "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()


class TestTrainCommand:
    def test_run_artifacts(self, run_dir):
        for name in ("model.json", "model.npz", "config.json", "stats.json",
                     "graph.json", "log.jsonl"):
            assert (run_dir / name).exists()

    def test_rerun_byte_identical(self, gen_dir, run_dir, tmp_path,
                                  tmp_path_factory):
        out2 = tmp_path / "run2"
        rc = run(["train", "--data", str(gen_dir / "env0.jsonl"),
                  "--world", str(gen_dir / "world.json"),
                  "--epochs", "3", "--warmup", "1", "--players", "2",
                  "--config", str(_tiny_config(tmp_path_factory)),
                  "--out", str(out2)])
        assert rc == 0
        for name in ("model.json", "model.npz", "log.jsonl", "graph.json"):
            assert (run_dir / name).read_bytes() == (out2 / name).read_bytes()

    def test_one_encoder_per_player(self, gen_dir, tmp_path):
        # 9 players on 4 labels partition into 4, config.json holds the 4
        # the run used, and 4 encoders are saved
        out = tmp_path / "run9"
        rc = run(["train", "--data", str(gen_dir / "env0.jsonl"),
                  "--epochs", "2", "--warmup", "1", "--players", "9",
                  "--out", str(out)])
        assert rc == 0
        manifest = json.loads(read(out / "model.json"))
        config = json.loads(read(out / "config.json"))
        assert config["n_players"] == len(manifest["players"]) == 4
        with np.load(out / "model.npz") as npz:
            assert npz["enc_w"].shape[0] == npz["enc_b"].shape[0] == 4

    def test_missing_data_exits_1(self, tmp_path):
        rc = run(["train", "--data", str(tmp_path / "nope.jsonl"),
                  "--out", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize("line,why", [
        ('{"features": [], "labels": []}', "empty dataset"),
        ('{"features": ["1.5", true], "labels": [true, 1.0]}', "line 1: "),
        # a number beyond a float64 is refused by the parser
        ('{"features": [%s], "labels": [1]}' % ("9" * 400),
         "line 1: parse error")],
        ids=["no-width", "no-numbers", "400-digits"])
    def test_dataset_of_no_width_or_of_no_numbers_exits_1(self, tmp_path,
                                                          capsys, line, why):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        rc = run(["train", "--data", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--data {path}: {why}" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_dataset_not_utf8_names_its_flag_and_line(self, gen_dir,
                                                      tmp_path, capsys):
        lines = read(gen_dir / "env0.jsonl").encode().splitlines(True)
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(lines[0] + lines[1].replace(b"{", b'{"id": "\xff", ',
                                                     1) + lines[2])
        rc = run(["train", "--data", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--data {path}: line 2: parse error" in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    def test_m_envs_zero_exits_1(self, gen_dir, run_dir, tmp_path, capsys,
                                 monkeypatch):
        # each bad size, count, fraction, rate, choice or JSON type is
        # rejected, naming its key, before the first optimizer step; so is
        # a bad config.json, model.json or model.npz in a run directory, a
        # run file that is not JSON or lacks a key, and a dataset or world
        # that does not parse or has another shape than --data or the model
        monkeypatch.setattr(training.AdamW, "step", _no_step)
        data = ["--data", str(gen_dir / "env0.jsonl")]
        cases = [(["train", *data, "--m-envs", "0"], "m_envs"),
                 (["train", *data, "--players", "0"], "n_players"),
                 (["train", *data, "--topk", "0"], "k_topk")]
        for i, (key, val) in enumerate((
                ("batch_size", 0), ("val_frac", 1.0), ("val_frac", 1.5),
                ("val_frac", -0.5), ("batch_size", "16"), ("lr_main", True),
                ("uniform_alpha", 1), ("partition_source", 3),
                ("max_epochs", -1), ("warmup_epochs", -1), ("patience", -1),
                ("partition_source", "learnd"), ("perturb_frac", 0),
                ("lr_main", -1), ("enc_dim", 0), ("seed", -1))):
            bad = tmp_path / f"bad{i}.json"
            bad.write_text(json.dumps({key: val}))
            cases.append((["train", *data, "--config", str(bad)], key))
        not_object = tmp_path / "five.json"
        not_object.write_text("5")
        cases.append((["train", *data, "--config", str(not_object)],
                      "--config"))
        empty = tmp_path / "empty.json"
        empty.write_text("")
        cases.append((["train", *data, "--config", str(empty)],
                      f"--config {empty}: not valid JSON"))
        for param, values in (("m_envs", "3,5,0"), ("eta", "1.5,2,0.5"),
                              ("m_envs", "3,5.5"), ("gamma", "0.2,x")):
            cases.append((["sensitivity", *data, "--param", param,
                           "--values", values], param))
        # a bad config.json value names its key; config.json alone gives the
        # hidden width and the player count (2 here), so one that disagrees
        # with the saved arrays fails their shape check
        for i, (key, val, name) in enumerate((
                ("typo_key", 1, "typo_key"), ("gamma", "0.5", "gamma"),
                ("gamma", 2.0, "gamma"), ("hidden", 8, "model.npz"),
                ("n_players", 1, "model.npz"))):
            bad_run = tmp_path / f"run{i}"
            shutil.copytree(run_dir, bad_run)
            config = json.loads(read(bad_run / "config.json"))
            (bad_run / "config.json").write_text(
                json.dumps({**config, key: val}))
            cases.append((["eval", "--model", str(bad_run), *data], name))
        # a model.npz array of the wrong shape, one only pickle reads, a
        # file cut short, and pair MLPs for all L*L pairs, as runs saved
        # before models held only the pairs their masks read
        with np.load(run_dir / "model.npz") as npz:
            arrays = dict(npz)
        dense = {k: np.zeros((4, 4) + arrays[k].shape[1:])
                 for k in ("w1", "b1", "w2", "b2")}
        for i, change in enumerate(({"W": np.zeros((5, 5))},
                                    {"b": np.array([None] * 4)}, None,
                                    dense)):
            bad_run = tmp_path / f"npz{i}"
            shutil.copytree(run_dir, bad_run)
            if change is None:
                cut = (run_dir / "model.npz").read_bytes()[:1000]
                (bad_run / "model.npz").write_bytes(cut)
            else:
                np.savez(bad_run / "model.npz", **{**arrays, **change})
            cases.append((["eval", "--model", str(bad_run), *data],
                          "model.npz"))
        # an .npy file in place of model.npz
        bad_run = tmp_path / "npy"
        shutil.copytree(run_dir, bad_run)
        with open(bad_run / "model.npz", "wb") as fh:
            np.save(fh, arrays["W"])
        cases.append((["eval", "--model", str(bad_run), *data], "model.npz"))
        # a manifest size missing or not an int, and players that overlap,
        # miss a label or name one outside range(L)
        manifest = json.loads(read(run_dir / "model.json"))
        for i, change in enumerate((
                {"d": None}, {"L": "4"}, {"players": [[0, 1], [1, 2, 3]]},
                {"players": [[0, 1], [2]]}, {"players": [[0, 1, 2, 3, 4]]},
                {"players": [[0, 1], []]}, {"players": 3})):
            bad_run = tmp_path / f"manifest{i}"
            shutil.copytree(run_dir, bad_run)
            (bad_run / "model.json").write_text(json.dumps(
                {k: v for k, v in {**manifest, **change}.items()
                 if v is not None}))
            cases.append((["eval", "--model", str(bad_run), *data],
                          "model.json"))
        # a --test dataset of another d or of another L, before the first
        # run trains
        wide = tmp_path / "wide"
        assert run(["gen", "--labels", "4", "--dim", "20", "--samples", "20",
                    "--out", str(wide)]) == 0
        ds = load_dataset(str(gen_dir / "env0.jsonl"))
        save_dataset(Dataset(ds.X, np.hstack([ds.Y, ds.Y[:, :1]])),
                     str(tmp_path / "five_labels.jsonl"))
        for test in (str(wide / "env0.jsonl"),
                     str(tmp_path / "five_labels.jsonl")):
            cases.append((["ablate", *data, "--test", test, "--only", "cgm"],
                          f"--test {test}"))
            cases.append((["sensitivity", *data, "--test", test,
                           "--param", "n_players", "--values", "2"],
                          f"--test {test}"))
        # an eval --ood of another d or L, or with a line that does not parse
        lines = read(gen_dir / "env1.jsonl").splitlines()
        (tmp_path / "torn.jsonl").write_text(f"{lines[0]}\n{{\n")
        three = tmp_path / "three"  # (L, d) = (3, 16)
        assert run(["gen", "--labels", "3", "--dim", "16", "--samples", "20",
                    "--out", str(three)]) == 0
        for ood in (str(three / "env0.jsonl"),
                    str(tmp_path / "five_labels.jsonl"),
                    str(wide / "env0.jsonl"), str(tmp_path / "torn.jsonl")):
            cases.append((["eval", "--model", str(run_dir), *data,
                           "--ood", ood], f"--ood {ood}"))
        # a --world of another (L, d), or without a key
        six = tmp_path / "six"  # (L, d) = (6, 40)
        assert run(["gen", "--labels", "6", "--dim", "40", "--samples", "5",
                    "--out", str(six)]) == 0
        no_d = tmp_path / "no_d.json"
        no_d.write_text(json.dumps({"L": 4}))
        for world in (str(six / "world.json"), str(three / "world.json"),
                      str(no_d)):
            cases.append((["train", *data, "--world", world],
                          f"--world {world}"))
        cases.append((["eval", "--model", str(run_dir), *data, "--world",
                       str(three / "world.json")],
                      f"--world {three / 'world.json'}"))
        # a --world whose L or d is not an int, with an edge graph.json
        # refuses, or with a block label outside range(L) or a block feature
        # that is not an int of range(d), which would index past the features
        world = json.loads(read(gen_dir / "world.json"))
        for i, change in enumerate((
                {"L": 4.7}, {"d": 16.9},
                {"edges": [{"src": 0.4, "dst": 1, "strength": 0.5}]},
                {"edges": [{"src": 0, "dst": 2.9, "strength": 0.5}]},
                {"edges": [{"src": 0, "dst": 1, "strength": "0.5"}]},
                {"spurious_blocks": {"0-1": [99]}},
                {"spurious_blocks": {"0-1": [1.5]}},
                {"causal_blocks": {"7": [0]}})):
            bad = tmp_path / f"world{i}.json"
            bad.write_text(json.dumps({**world, **change}))
            for argv in (["train", *data], ["eval", "--model", str(run_dir),
                                            *data]):
                cases.append(([*argv, "--world", str(bad)], f"--world {bad}"))
        # players without the graph.json their masks, and so the model's
        # pairs, come from
        bad_run = tmp_path / "no_graph"
        shutil.copytree(run_dir, bad_run)
        (bad_run / "graph.json").unlink()
        cases.append((["eval", "--model", str(bad_run), *data], "graph.json"))
        # a graph.json of another label count, with an edge outside it, or
        # with a value that is not of its type: eval and export-graph read
        # it through load_run
        graph = json.loads(read(run_dir / "graph.json"))
        for i, change in enumerate((
                {"L": 5}, {"L": 4.7},
                {"edges": [{"src": 4, "dst": 0, "strength": 0.5}]},
                {"edges": [{"src": 0, "dst": -1, "strength": 0.5}]},
                {"edges": [{"src": 0.4, "dst": 1, "strength": 0.5}]},
                {"edges": [{"src": 2.9, "dst": 1, "strength": 0.5}]},
                {"edges": [{"src": 0, "dst": 1, "strength": "0.5"}]})):
            bad_run = tmp_path / f"graph{i}"
            shutil.copytree(run_dir, bad_run)
            (bad_run / "graph.json").write_text(json.dumps({**graph,
                                                            **change}))
            for argv in (["eval", "--model", str(bad_run), *data],
                         ["export-graph", "--model", str(bad_run)]):
                cases.append((argv, str(bad_run / "graph.json")))
        # a stats.json whose freq is not one count per label
        stats = json.loads(read(run_dir / "stats.json"))
        for i, change in enumerate((
                {"freq": stats["freq"][:2]}, {"freq": [1, 2, 3, -1]},
                {"freq": [1, 2, 3, 4.5]}, {"freq": [True, 1, 2, 3]})):
            bad_run = tmp_path / f"stats{i}"
            shutil.copytree(run_dir, bad_run)
            (bad_run / "stats.json").write_text(json.dumps({**stats,
                                                            **change}))
            cases.append((["eval", "--model", str(bad_run), *data],
                          str(bad_run / "stats.json")))
        # a run file that is not JSON, or lacks a key its reader needs
        for i, (name, text) in enumerate(
                [(name, "{\n") for name in ("model.json", "config.json",
                                            "stats.json", "graph.json")]
                + [("stats.json", "{}"), ("graph.json", '{"edges": 3}')]):
            bad_run = tmp_path / f"json{i}"
            shutil.copytree(run_dir, bad_run)
            (bad_run / name).write_text(text)
            cases.append((["eval", "--model", str(bad_run), *data],
                          str(bad_run / name)))
        for argv, name in cases:
            rc = run([*argv, "--out", str(tmp_path / "o")])
            assert rc == 1, argv
            err = capsys.readouterr().err
            assert name in err and "Traceback" not in err, err
            assert not (tmp_path / "o").exists()

    def test_extra_envs_of_another_dimension_exits_1(self, gen_dir, tmp_path,
                                                      capsys, monkeypatch):
        other = tmp_path / "other"
        assert run(["gen", "--labels", "4", "--dim", "20", "--samples", "20",
                    "--out", str(other)]) == 0
        monkeypatch.setattr(training.AdamW, "step", _no_step)
        rc = run(["train", "--data", str(gen_dir / "env0.jsonl"),
                  "--extra-envs", str(other / "env0.jsonl"),
                  "--epochs", "2", "--warmup", "1",
                  "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--extra-envs {other / 'env0.jsonl'}" in err
        assert "(20, 4)" in err and "(16, 4)" in err
        assert not (tmp_path / "o").exists()

    def test_extra_envs_logs_ood_map_every_epoch(self, gen_dir, run_dir,
                                                 tmp_path, tmp_path_factory):
        out = tmp_path / "ood"
        rc = run(["train", "--data", str(gen_dir / "env0.jsonl"),
                  "--extra-envs", str(gen_dir / "env1.jsonl"),
                  "--epochs", "2", "--warmup", "1", "--players", "2",
                  "--config", str(_tiny_config(tmp_path_factory)),
                  "--out", str(out)])
        assert rc == 0
        log = [json.loads(line)
               for line in read(out / "log.jsonl").splitlines()]
        assert len(log) == 2
        assert all(math.isfinite(e["ood_map"]) for e in log)
        # run_dir trained without the flag
        assert not any("ood_map" in json.loads(line)
                       for line in read(run_dir / "log.jsonl").splitlines())

    def test_extra_envs_takes_one_path(self, gen_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data", str(gen_dir / "env0.jsonl"),
                 "--extra-envs", str(gen_dir / "env1.jsonl"),
                 str(gen_dir / "env0.jsonl"), "--out", str(tmp_path / "o")])
        assert exc.value.code == 1

    def test_overflowing_features_exit_2_naming_the_term(self, gen_dir,
                                                         tmp_path, capsys):
        lines = read(gen_dir / "env0.jsonl").splitlines()
        row = json.loads(lines[0])
        row["features"] = [1e300] * len(row["features"])
        data = tmp_path / "overflow.jsonl"
        data.write_text("\n".join([json.dumps(row)] + lines[1:]) + "\n")
        # the two expected overflows: semantic_similarity's centroid norms
        # and the invariance loss's squared distances, whose term aborts
        with pytest.warns(RuntimeWarning, match="overflow") as caught:
            rc = run(["train", "--data", str(data), "--epochs", "2",
                      "--warmup", "1", "--players", "2", "--seed", "0",
                      "--out", str(tmp_path / "o")])
        assert rc == 2
        assert len(caught) == 2 and "linalg" in caught[0].filename
        assert caught[1].filename.endswith("invariance.py")
        assert "term '" in capsys.readouterr().err
        # the epochs before the abort are saved as strict JSON
        log = (tmp_path / "o" / "log.jsonl").read_text().splitlines()
        assert [json.loads(line, parse_constant=pytest.fail)["epoch"]
                for line in log] == [0]

    def test_unknown_config_key_exits_1(self, gen_dir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"learning_rate_typo": 1}))
        rc = run(["train", "--data", str(gen_dir / "env0.jsonl"),
                  "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1


class TestEvalCommand:
    def test_report_contents(self, gen_dir, run_dir, tmp_path):
        out = tmp_path / "eval"
        rc = run(["eval", "--model", str(run_dir),
                  "--data", str(gen_dir / "env0.jsonl"),
                  "--world", str(gen_dir / "world.json"),
                  "--rare-pcts", "20,40", "--out", str(out)])
        assert rc == 0
        report = json.loads(read(out / "report.json"))
        assert set(report["rare_f1"]) == {"20.0", "40.0"}
        assert "structure" in report
        assert (out / "report.csv").exists()

    def test_ood_delta_zero_against_itself(self, gen_dir, run_dir, tmp_path):
        out = tmp_path / "eval"
        rc = run(["eval", "--model", str(run_dir),
                  "--data", str(gen_dir / "env0.jsonl"),
                  "--ood", str(gen_dir / "env0.jsonl"),
                  "--out", str(out)])
        assert rc == 0
        report = json.loads(read(out / "report.json"))
        assert report["ood_delta"]["map_drop"] == 0.0

    @pytest.mark.parametrize("pcts", ["150", "-5", "x", "20,100.5", "nan"])
    def test_rare_pct_outside_0_100_exits_1(self, gen_dir, run_dir, tmp_path,
                                            capsys, pcts):
        rc = run(["eval", "--model", str(run_dir),
                  "--data", str(gen_dir / "env0.jsonl"),
                  "--rare-pcts", pcts, "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--rare-pcts {pcts}" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_partition_after_the_loop_saves_the_pairs_it_reads(
            self, gen_dir, tmp_path):
        # with max_epochs <= warmup_epochs train partitions after its last
        # epoch; the saved run holds only the pairs the players' masks read
        # and eval scores it as the trained model in memory
        ds = load_dataset(str(gen_dir / "env0.jsonl"))
        cfg = TrainConfig(max_epochs=1, warmup_epochs=1, n_players=2,
                          hidden=4, enc_dim=4, seed=2)
        r = training.train(ds, cfg)
        assert [e["n_players"] for e in r.log] == [0]
        np.testing.assert_array_equal(r.model.pairs, r.masks.pairs)
        P = len(r.masks.pairs)
        assert 0 < P < 4 * 3
        training.save_run(str(tmp_path / "run"), r)
        with np.load(tmp_path / "run" / "model.npz") as npz:
            assert npz["w1"].shape == (P, 4, ds.d)
        loaded = training.load_run(str(tmp_path / "run"))
        np.testing.assert_array_equal(
            evaluation.predict_dataset(loaded[0], ds),
            evaluation.predict_dataset(r.model, ds))
        assert run(["eval", "--model", str(tmp_path / "run"),
                    "--data", str(gen_dir / "env0.jsonl"),
                    "--rare-pcts", "30", "--out", str(tmp_path / "eval")]) == 0
        report = json.loads(read(tmp_path / "eval" / "report.json"))
        want = evaluation.evaluate(r.model, None, r.masks, ds, None, r.stats,
                                   [30.0]).to_dict()
        assert report == json.loads(json.dumps(want))

    def test_reaches_the_functions_the_benchmark_traces(
            self, gen_dir, run_dir, tmp_path, monkeypatch):
        # bench/spans.py times these by replacing the module's attributes,
        # so evaluate must call each through its name in ccg.evaluation
        calls = dict.fromkeys(("average_precision", "rare_f1",
                               "predict_dataset"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(evaluation, name,
                                counted(name, getattr(evaluation, name)))
        assert run(["eval", "--model", str(run_dir),
                    "--data", str(gen_dir / "env0.jsonl"),
                    "--ood", str(gen_dir / "env1.jsonl"),
                    "--out", str(tmp_path / "eval")]) == 0
        assert min(calls.values()) >= 1, calls

    def test_dimension_mismatch_exits_1(self, run_dir, tmp_path):
        other = tmp_path / "other"
        run(["gen", "--labels", "4", "--dim", "8", "--samples", "20",
             "--out", str(other)])
        rc = run(["eval", "--model", str(run_dir),
                  "--data", str(other / "env0.jsonl"),
                  "--out", str(tmp_path / "o")])
        assert rc == 1


class TestHarnessCommands:
    def test_sweep_players(self, gen_dir, tmp_path, tmp_path_factory):
        out = tmp_path / "sweep.csv"
        rc = run(["sensitivity", "--data", str(gen_dir / "env0.jsonl"),
                  "--param", "n_players", "--values", "1,2",
                  "--epochs", "2", "--warmup", "1",
                  "--config", str(_tiny_config(tmp_path_factory)),
                  "--out", str(out)])
        assert rc == 0
        lines = read(out).strip().split("\n")
        assert lines[0] == "n_players,map,rare_f1"
        assert len(lines) == 3
        assert lines[1].startswith("1,") and lines[2].startswith("2,")
        # without --test a row holds the validation figures of the epoch
        # whose model train returns, here the one full epoch
        rc = run(["train", "--data", str(gen_dir / "env0.jsonl"),
                  "--players", "2", "--epochs", "2", "--warmup", "1",
                  "--config", str(_tiny_config(tmp_path_factory)),
                  "--out", str(tmp_path / "run")])
        assert rc == 0
        last = json.loads(read(tmp_path / "run" / "log.jsonl").splitlines()[-1])
        assert lines[2] == f"2,{last['val_map']},{last['val_rare_f1']}"

    def test_sweep_row_is_the_epoch_train_returns(self, gen_dir, tmp_path,
                                                  monkeypatch):
        # train returns the first full epoch of highest val_map: epoch 2,
        # not the warm-up epoch 0 above it, its tie 3 or the last, 4
        log = [{"epoch": e, "n_players": 2 if e else 0, "val_map": m,
                "val_rare_f1": f1}
               for e, (m, f1) in enumerate([(0.875, 0.875), (0.5, 0.125),
                                            (0.75, 0.25), (0.75, 0.5),
                                            (0.625, 0.375)])]

        def fake_train(ds, cfg, planted=None, ood=None):
            return training.TrainResult(model=None, masks=None, graph=None,
                                        stats=None, config=cfg, log=log)

        monkeypatch.setattr(training, "train", fake_train)
        out = tmp_path / "sweep.csv"
        assert run(["sensitivity", "--data", str(gen_dir / "env0.jsonl"),
                    "--param", "n_players", "--values", "2",
                    "--out", str(out)]) == 0
        assert read(out).splitlines()[1] == "2,0.75,0.25"

    @pytest.mark.parametrize("ns", ["1,x", "0", "2,-1", "1.5", ""])
    def test_sweep_players_bad_ns_exits_1(self, gen_dir, tmp_path, capsys,
                                          monkeypatch, ns):
        monkeypatch.setattr(training.AdamW, "step", _no_step)
        out = tmp_path / "sweep.csv"
        rc = run(["sensitivity", "--data", str(gen_dir / "env0.jsonl"),
                  "--param", "n_players", "--values", ns,
                  "--epochs", "2", "--warmup", "1", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--values {ns}" in err and "Traceback" not in err
        assert not out.exists()

    def test_ablate_only_rle(self, gen_dir, tmp_path, tmp_path_factory):
        out = tmp_path / "ablate.csv"
        rc = run(["ablate", "--data", str(gen_dir / "env0.jsonl"),
                  "--only", "rle", "--epochs", "2", "--warmup", "1",
                  "--players", "2",
                  "--config", str(_tiny_config(tmp_path_factory)),
                  "--out", str(out)])
        assert rc == 0
        lines = read(out).strip().split("\n")
        assert len(lines) == 3  # header + full + w/o RLE
        assert lines[1].startswith("full,")
        assert lines[2].startswith("w/o RLE,")

    def test_sensitivity_custom_values(self, gen_dir, tmp_path,
                                       tmp_path_factory):
        # --param is the TrainConfig field the rows vary
        for param, values in (("gamma", "0.2,0.8"), ("gamma_r_t", "0.5,1.5")):
            out = tmp_path / f"{param}.csv"
            rc = run(["sensitivity", "--data", str(gen_dir / "env0.jsonl"),
                      "--param", param, "--values", values,
                      "--epochs", "2", "--warmup", "1", "--players", "2",
                      "--config", str(_tiny_config(tmp_path_factory)),
                      "--out", str(out)])
            assert rc == 0
            lines = read(out).strip().split("\n")
            assert lines[0] == f"{param},map,rare_f1"
            assert [line.split(",")[0] for line in lines[1:]] == \
                values.split(",")

    @pytest.mark.parametrize("names", ["a,b", "a,b,c,d,e"])
    def test_export_graph_names_of_another_count_exit_1(self, run_dir,
                                                        tmp_path, capsys,
                                                        names):
        rc = run(["export-graph", "--model", str(run_dir), "--names", names,
                  "--out", str(tmp_path / "g.dot")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--names" in err and "Traceback" not in err
        assert f"{len(names.split(','))} names" in err and "4 labels" in err
        assert not (tmp_path / "g.dot").exists()
        assert run(["export-graph", "--model", str(run_dir),
                    "--names", "a,b,c,d", "--out", str(tmp_path / "g.dot")]) == 0
        assert '  "d";' in read(tmp_path / "g.dot")

    def test_export_graph_escapes_names_and_refuses_a_name_twice(
            self, run_dir, tmp_path, capsys):
        out = tmp_path / "g.dot"
        assert run(["export-graph", "--model", str(run_dir),
                    "--names", 'a"b,c\\,d,e', "--out", str(out)]) == 0
        assert '  "a\\"b";\n  "c\\\\";\n' in read(out)
        out.unlink()
        rc = run(["export-graph", "--model", str(run_dir),
                  "--names", "a,a,b,c", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--names a,a,b,c" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("names", ["", "a,,b,c"])
    def test_export_graph_empty_name_exits_1(self, run_dir, tmp_path, capsys,
                                             names):
        # an empty --names is a list of one empty name, not "no names"
        out = tmp_path / "g.dot"
        rc = run(["export-graph", "--model", str(run_dir), "--names", names,
                  "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--names" in err and "empty name" in err
        assert "Traceback" not in err and not out.exists()

    def test_export_graph_without_a_graph_names_the_run(self, gen_dir,
                                                        tmp_path, capsys):
        # a run of no epochs extracts no graph
        run_no_graph = tmp_path / "run0"
        assert run(["train", "--data", str(gen_dir / "env0.jsonl"),
                    "--epochs", "0", "--out", str(run_no_graph)]) == 0
        capsys.readouterr()
        assert run(["export-graph", "--model", str(run_no_graph),
                    "--out", str(tmp_path / "g.dot")]) == 1
        err = capsys.readouterr().err
        assert f"--model {run_no_graph}" in err and "graph.json" in err
        assert not (tmp_path / "g.dot").exists()

    def test_export_graph_deterministic(self, run_dir, tmp_path):
        a, b = tmp_path / "a.dot", tmp_path / "b.dot"
        assert run(["export-graph", "--model", str(run_dir),
                    "--out", str(a)]) == 0
        assert run(["export-graph", "--model", str(run_dir),
                    "--out", str(b)]) == 0
        text = read(a)
        assert text == read(b)
        assert text.startswith("digraph G {")


class TestConfigAndAblations:
    def test_cli_overrides_beat_config_file(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        # an int is a valid value for a float field
        cfg_file.write_text(json.dumps({"seed": 5, "max_epochs": 9,
                                        "eta": 2}))

        class Args:
            config = str(cfg_file)
            seed = 7
            ablate = None
        cfg = build_config(Args())
        assert cfg.seed == 7 and cfg.max_epochs == 9 and cfg.eta == 2

    def test_ablation_semantics(self):
        base = TrainConfig()
        assert apply_ablations(base, ["cgm"]).lambda_graph == 0.0
        assert apply_ablations(base, ["cgm"]).partition_source == "cooccur"
        assert apply_ablations(base, ["ccr"]).lambda_rwd == 0.0
        cil = apply_ablations(base, ["cil"])
        assert cil.lambda_inv == 0.0 and cil.lambda_env == 0.0 and cil.m_envs == 1
        assert apply_ablations(base, ["mpd"]).n_players == 1
        rle = apply_ablations(base, ["rle"])
        assert rle.lambda_rare == 0.0 and rle.uniform_alpha

    def test_unknown_flag_rejected(self):
        from ccg.errors import DatasetError
        with pytest.raises(DatasetError):
            apply_ablations(TrainConfig(), ["nope"])

    def test_all_flags_named(self):
        assert ABLATION_FLAGS == ("cgm", "ccr", "cil", "mpd", "rle")


class TestUsageErrors:
    def test_missing_required_argument_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--labels", "4"])
        assert exc.value.code == 1

    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 1

    # each flag parses its value with its declared type, and a value of
    # another type exits 1 with one line naming the flag
    @pytest.mark.parametrize("argv", [
        *(["train", "--data", "d.jsonl", "--out", "o", flag, value]
          for flag, value in (
              ("--seed", "1.5"), ("--epochs", "1.5"), ("--players", "2.0"),
              ("--topk", "three"), ("--warmup", "1e1"), ("--m-envs", "1.5"),
              ("--gamma", "abc"), ("--eta", "1,5"), ("--gamma-r-peak", ""))),
        *(["gen", "--labels", "4", "--dim", "16", "--samples", "5",
           "--out", "o", flag, value]
          for flag, value in (
              ("--labels", "4.0"), ("--dim", "x"), ("--samples", "5.5"),
              ("--envs", ""), ("--seed", "0.5"), ("--edge-density", "abc")))],
        ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_flag_value_of_another_type_exits_1_naming_it(self, argv,
                                                           capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"argument {argv[-2]}: " in err
        assert "Traceback" not in err
