import os
import re
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import dialectid
from dialectid import cli, harness, normalizer
from dialectid.classifier import load_model, save_model
from dialectid.corpus import LabelVocab, load_corpus, read_submission
from dialectid.features import fnv1a64
from dialectid.normalizer import NormConfig

import fixtures
import synthcorpus
from file_io import parse_report


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("clicorpus")
    paths = synthcorpus.write_dialect_corpus(
        str(directory), seed=19, n_train=25, n_dev=8, n_test=8
    )
    config = synthcorpus.write_benchmark_config(str(directory), paths, dim=1 << 12)
    return {"dir": directory, "paths": paths, "config": config}


@pytest.fixture(scope="module")
def trained(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("clitrained")
    model = str(out / "model.bin")
    idf = str(out / "idf.bin")
    rc = cli.main(
        [
            "--config", corpus_dir["config"],
            "train",
            "--in", corpus_dir["paths"]["train"],
            "--level", "country",
            "--vocab", corpus_dir["paths"]["vocab"],
            "--out-model", model,
            "--out-idf", idf,
        ]
    )
    assert rc == 0
    return {"model": model, "idf": idf}


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert cli.main(["stats", "--in", "whatever.tsv"]) == 2
        capsys.readouterr()

    def test_benchmark_without_config(self, capsys):
        assert cli.main(["benchmark"]) == 2
        assert "config" in capsys.readouterr().err


class TestDataErrors:
    def test_missing_input_file_names_path(self, capsys):
        rc = cli.main(["stats", "--in", "/nonexistent/none.tsv", "--level", "country"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "/nonexistent/none.tsv" in err

    @staticmethod
    def argv_of(command, corpus_dir, trained, tmp_path):
        """A command line of the command that exits 0."""
        paths = corpus_dir["paths"]
        test = load_corpus(paths["test"])
        pred = tmp_path / "pred.csv"
        pred.write_text(
            "".join(f"{r.id},{r.country}\n" for r in test), encoding="utf-8"
        )
        return {
            "benchmark": ["benchmark", corpus_dir["config"], "--out-dir", str(tmp_path / "out")],
            "stats": ["stats", "--in", paths["dev"], "--level", "country"],
            "normalize": ["normalize", "--in", paths["dev"], "--out", str(tmp_path / "n.tsv")],
            "evaluate": ["evaluate", "--gold", paths["test"], "--pred", str(pred),
                         "--level", "country", "--vocab", paths["vocab"]],
            "predict": ["predict", "--model", trained["model"], "--idf", trained["idf"],
                        "--in", paths["test"], "--out", str(tmp_path / "sub.csv")],
        }[command]

    @pytest.mark.parametrize("command", ["benchmark", "stats", "normalize", "evaluate"])
    def test_global_config_is_an_error_where_unread(
        self, corpus_dir, trained, tmp_path, capsys, command
    ):
        argv = self.argv_of(command, corpus_dir, trained, tmp_path)
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert cli.main(["--config", str(tmp_path / "none.cfg")] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --config is read by train and predict, not {command}\n"

    @pytest.mark.parametrize("command", ["predict", "stats", "normalize", "evaluate"])
    def test_seed_is_an_error_where_unread(self, corpus_dir, trained, tmp_path, capsys, command):
        argv = self.argv_of(command, corpus_dir, trained, tmp_path)
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert cli.main(["--seed", "5"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --seed is read by train and benchmark, not {command}\n"

    @pytest.mark.parametrize("command", ["train", "benchmark", "evaluate", "stats"])
    def test_record_without_the_level_label(self, tmp_path, capsys, command):
        vocab = tmp_path / "v.tsv"
        vocab.write_text("Cairo\tEgypt\nGiza\tEgypt\n", encoding="utf-8")
        split = tmp_path / "train.tsv"
        split.write_text("a1\tازيك يا باشا\tEgypt\tCairo\na2\tعامل ايه\tEgypt\t\n", encoding="utf-8")
        dev = tmp_path / "dev.tsv"
        dev.write_text("d1\tازيك\tEgypt\tGiza\n", encoding="utf-8")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"format=1\n[data]\ntrain={split}\ndev={dev}\ntest={dev}\nvocab={vocab}\n"
            "level=province\nregister=da\n[experiment e]\n",
            encoding="utf-8",
        )
        pred = tmp_path / "pred.csv"
        pred.write_text("a1,Cairo\na2,Giza\n", encoding="utf-8")
        out = tmp_path / "out"
        labels = ["--level", "province", "--vocab", str(vocab)]
        argv = {
            "train": ["train", "--in", str(split), *labels,
                      "--out-model", str(out / "m.bin"), "--out-idf", str(out / "i.bin")],
            "benchmark": ["benchmark", str(cfg), "--out-dir", str(out)],
            "evaluate": ["evaluate", "--gold", str(split), "--pred", str(pred), *labels],
            "stats": ["stats", "--in", str(split), *labels],
        }[command]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: record 'a2' has no province label\n")
        assert not out.exists()

    def test_bad_label_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.tsv"
        path.write_text("id\ttweet\tcountry\tprovince\nr1\tنص\tRuritania\t\n", encoding="utf-8")
        rc = cli.main(["stats", "--in", str(path), "--level", "province"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestNormalize:
    def test_header_file_normalizes_text_column(self, tmp_path, capsys):
        src = tmp_path / "in.tsv"
        src.write_text(
            "id\ttweet\tcountry\tprovince\n"
            "a\t@user هههههه http://x.co\tEgypt\t\n",
            encoding="utf-8",
        )
        dst = tmp_path / "out.tsv"
        assert cli.main(["normalize", "--in", str(src), "--out", str(dst)]) == 0
        lines = dst.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id\ttweet\tcountry\tprovince"
        assert lines[1] == "a\t[مستخدم] هه [رابط]\tEgypt\t"
        capsys.readouterr()

    def test_headerless_crlf_file_keeps_other_columns(self, tmp_path):
        src = tmp_path / "in.tsv"
        src.write_bytes("a\tههههه\tEgypt\r\nb\tعمري25سنة\t\r\n".encode("utf-8"))
        dst = tmp_path / "out.tsv"
        assert cli.main(["normalize", "--in", str(src), "--out", str(dst)]) == 0
        assert dst.read_text(encoding="utf-8") == "a\tهه\tEgypt\nb\tعمري 25 سنة\t\n"

    def test_single_column_file(self, tmp_path):
        src = tmp_path / "raw.txt"
        src.write_text("عمري25سنة\nههههه\n", encoding="utf-8")
        dst = tmp_path / "out.txt"
        assert cli.main(["normalize", "--in", str(src), "--out", str(dst)]) == 0
        assert dst.read_text(encoding="utf-8") == "عمري 25 سنة\nهه\n"

    def test_segment_flag(self, tmp_path):
        src = tmp_path / "raw.txt"
        src.write_text("والكتاب\n", encoding="utf-8")
        dst = tmp_path / "out.txt"
        assert cli.main(["normalize", "--in", str(src), "--out", str(dst), "--segment"]) == 0
        assert dst.read_text(encoding="utf-8") == "وال+ كتاب\n"

    def test_presegmented_flag_overrides_the_default_lexicon(self, tmp_path):
        src = tmp_path / "raw.txt"
        src.write_text("والكتاب والقلم\n", encoding="utf-8")
        table = tmp_path / "p.tsv"
        table.write_text("والكتاب\tو+ ال+ كتاب\n", encoding="utf-8")
        dst = tmp_path / "out.txt"
        argv = ["normalize", "--in", str(src), "--out", str(dst), "--segment"]
        assert cli.main(argv) == 0
        assert dst.read_text(encoding="utf-8") == "وال+ كتاب وال+ قلم\n"
        assert cli.main(argv + ["--presegmented", str(table)]) == 0
        assert dst.read_text(encoding="utf-8") == "و+ ال+ كتاب وال+ قلم\n"

    def test_lexicon_and_presegmented_flags_together(self, tmp_path):
        src = tmp_path / "raw.txt"
        src.write_text("فكتابها والقلم\n", encoding="utf-8")
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("[prefixes]\nف\n[suffixes]\nها\n", encoding="utf-8")
        table = tmp_path / "p.tsv"
        table.write_text("والقلم\tو+ القلم\n", encoding="utf-8")
        dst = tmp_path / "out.txt"
        argv = ["normalize", "--in", str(src), "--out", str(dst), "--segment",
                "--lexicon", str(lexicon)]
        assert cli.main(argv) == 0
        assert dst.read_text(encoding="utf-8") == "ف+ كتاب +ها والقلم\n"
        assert cli.main(argv + ["--presegmented", str(table)]) == 0
        assert dst.read_text(encoding="utf-8") == "ف+ كتاب +ها و+ القلم\n"

    def test_presegmented_token_listed_twice_fails(self, tmp_path, capsys):
        src = tmp_path / "raw.txt"
        src.write_text("والكتاب\n", encoding="utf-8")
        table = tmp_path / "dup.tsv"
        table.write_text("والكتاب\tو+ الكتاب\nوالقلم\tو+ القلم\nوالكتاب\tوال+ كتاب\n",
                         encoding="utf-8")
        dst = tmp_path / "out.txt"
        argv = ["normalize", "--in", str(src), "--out", str(dst), "--segment",
                "--presegmented", str(table)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert f"{table}:3: token 'والكتاب' listed twice (first at line 1)" in err
        assert not dst.exists()

    def test_lexicon_with_an_unknown_section_fails(self, tmp_path, capsys):
        src = tmp_path / "raw.txt"
        src.write_text("والكتاب\n", encoding="utf-8")
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("[suffixes]\nها\n[other]\nx\n", encoding="utf-8")
        dst = tmp_path / "out.txt"
        argv = ["normalize", "--in", str(src), "--out", str(dst), "--segment",
                "--lexicon", str(lexicon)]
        assert cli.main(argv) == 1
        assert f"{lexicon}:3: unknown section '[other]'" in capsys.readouterr().err
        assert not dst.exists()

    def test_max_repeat_flag(self, tmp_path):
        src = tmp_path / "raw.txt"
        src.write_text("ههههه\n", encoding="utf-8")
        dst = tmp_path / "out.txt"
        assert cli.main(
            ["normalize", "--in", str(src), "--out", str(dst), "--max-repeat", "1"]
        ) == 0
        assert dst.read_text(encoding="utf-8") == "ه\n"

    def test_max_repeat_beyond_re_is_an_error(self, tmp_path):
        # re refuses a repetition count of 2**32 - 1 or more.
        src = tmp_path / "raw.txt"
        src.write_text("ههههه\n", encoding="utf-8")
        dst = tmp_path / "out.txt"
        proc = run_module(
            "normalize", "--in", str(src), "--out", str(dst), "--max-repeat", "100000000000"
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: max_repeat must be >= 1 and below 2**32 - 1")
        assert "Traceback" not in proc.stderr
        assert not dst.exists()

    @pytest.mark.parametrize("content,lineno", [
        ("a\tنص\nc\n", 2),
        ("id\ttweet\na\tنص\nb\n", 3),
    ])
    def test_row_without_text_column_is_an_error(self, tmp_path, content, lineno):
        src = tmp_path / "rows.tsv"
        src.write_text(content, encoding="utf-8")
        dst = tmp_path / "out.tsv"
        proc = run_module("normalize", "--in", str(src), "--out", str(dst))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {src}:{lineno}: ")
        assert "Traceback" not in proc.stderr
        assert not dst.exists()


class TestStats:
    def test_counts_without_vocab(self, tmp_path, capsys):
        path = tmp_path / "split.tsv"
        path.write_text(
            "id\ttweet\tcountry\tprovince\n"
            "a\tx\tEgypt\t\nb\ty\tEgypt\t\nc\tz\tIraq\t\n",
            encoding="utf-8",
        )
        assert cli.main(["stats", "--in", str(path), "--level", "country"]) == 0
        out = capsys.readouterr().out
        assert out == "Egypt\t2\nIraq\t1\ntotal\t3\n"

    def test_vocab_adds_zero_rows(self, corpus_dir, capsys):
        rc = cli.main(
            [
                "stats",
                "--in", corpus_dir["paths"]["dev"],
                "--level", "country",
                "--vocab", corpus_dir["paths"]["vocab"],
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "total\t32"
        assert [l.split("\t")[0] for l in lines[:-1]] == list(synthcorpus.INVENTORIES)


class TestTrainPredictEvaluate:
    def test_train_writes_artifacts(self, corpus_dir, trained, capsys):
        assert Path(trained["model"]).read_bytes()[:8] == b"NADIMDL3"
        assert Path(trained["idf"]).read_bytes()[:8] == b"NADIIDF2"
        model = load_model(trained["model"], trained["idf"])
        spec = harness.parse_benchmark_file(corpus_dir["config"])
        assert model.feature_fingerprint == harness.fingerprint(spec.experiments[0])

    def test_predict_then_evaluate_round_trip(self, corpus_dir, trained, tmp_path, capsys):
        sub = tmp_path / "sub.csv"
        rc = cli.main(
            [
                "--config", corpus_dir["config"],
                "predict",
                "--model", trained["model"],
                "--idf", trained["idf"],
                "--in", corpus_dir["paths"]["test"],
                "--out", str(sub),
            ]
        )
        assert rc == 0
        pairs = read_submission(str(sub))
        assert len(pairs) == 32
        assert pairs[0][0] == "test-00000"
        capsys.readouterr()

        rc = cli.main(
            [
                "evaluate",
                "--gold", corpus_dir["paths"]["test"],
                "--pred", str(sub),
                "--level", "country",
                "--vocab", corpus_dir["paths"]["vocab"],
            ]
        )
        assert rc == 0
        rep = parse_report(capsys.readouterr().out)
        assert rep.total == 32
        assert rep.accuracy == 1.0

    def test_predict_without_config_adapts_dim(self, corpus_dir, trained, tmp_path, capsys):
        sub = tmp_path / "sub.csv"
        rc = cli.main(
            [
                "predict",
                "--model", trained["model"],
                "--idf", trained["idf"],
                "--in", corpus_dir["paths"]["test"],
                "--out", str(sub),
            ]
        )
        assert rc == 0
        assert len(read_submission(str(sub))) == 32
        capsys.readouterr()

    def test_predict_with_mismatched_config_dim_fails(
        self, corpus_dir, trained, tmp_path, capsys
    ):
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(
            "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
            "[experiment big]\ndim=16384\nepochs=1\n",
            encoding="utf-8",
        )
        rc = cli.main(
            [
                "--config", str(other_cfg),
                "predict",
                "--model", trained["model"],
                "--idf", trained["idf"],
                "--in", corpus_dir["paths"]["test"],
                "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert rc == 1
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("keys", [
        "n_min=3", "pad_token=#", "segment=true", "max_seq_len=40", "max_repeat=1",
    ])
    def test_predict_with_other_features_fails(
        self, corpus_dir, trained, tmp_path, capsys, keys
    ):
        # Same dim as the model, so only the fingerprint tells them apart.
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(
            "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
            f"[experiment other]\ndim=4096\n{keys}\n",
            encoding="utf-8",
        )
        rc = cli.main(
            [
                "--config", str(other_cfg),
                "predict",
                "--model", trained["model"],
                "--idf", trained["idf"],
                "--in", corpus_dir["paths"]["test"],
                "--out", str(tmp_path / "s.csv"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "'other'" in err and "Traceback" not in err
        assert not (tmp_path / "s.csv").exists()

    def test_predict_refuses_a_model_of_the_former_fingerprint(
        self, corpus_dir, trained, tmp_path, capsys
    ):
        # The fingerprint once also covered the features' bucket seed,
        # always seed=0 after dim; a model that carries it must be retrained.
        config = harness.parse_benchmark_file(corpus_dir["config"]).experiments[0]
        settings = [(f.name, getattr(config.norm, f.name)) for f in fields(NormConfig)]
        settings.append(("max_seq_len", config.hp.max_seq_len))
        feats = config.features
        settings += [("n_min", feats.n_min), ("n_max", feats.n_max), ("dim", feats.dim)]

        def digest(pairs):
            canon = ";".join(f"{name}={value}" for name, value in pairs)
            return f"{fnv1a64(canon.encode('utf-8')):016x}"

        assert digest(settings + [("pad_token", feats.pad_token)]) == harness.fingerprint(config)
        former = digest(settings + [("seed", 0), ("pad_token", feats.pad_token)])
        model = load_model(trained["model"], trained["idf"])
        model.feature_fingerprint = former
        old = tmp_path / "old.bin"
        save_model(model, str(old), str(tmp_path / "old.idf"))
        rc = cli.main(
            [
                "--config", corpus_dir["config"],
                "predict",
                "--model", str(old),
                "--idf", str(tmp_path / "old.idf"),
                "--in", corpus_dir["paths"]["test"],
                "--out", str(tmp_path / "s.csv"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: model was trained with fingerprint {former}")
        assert "Traceback" not in err
        assert not (tmp_path / "s.csv").exists()

    def test_model_without_fingerprint_is_not_checked(
        self, corpus_dir, trained, tmp_path, capsys
    ):
        model = load_model(trained["model"], trained["idf"])
        model.feature_fingerprint = ""
        bare = tmp_path / "bare.bin"
        save_model(model, str(bare), str(tmp_path / "bare.idf"))
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(
            "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
            "[experiment other]\ndim=4096\nn_min=3\n",
            encoding="utf-8",
        )
        rc = cli.main(
            [
                "--config", str(other_cfg),
                "predict",
                "--model", str(bare),
                "--idf", str(tmp_path / "bare.idf"),
                "--in", corpus_dir["paths"]["test"],
                "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert rc == 0
        assert len(read_submission(str(tmp_path / "s.csv"))) == 32
        capsys.readouterr()

    def test_model_and_idf_of_other_fits(self, corpus_dir, tmp_path, capsys):
        # Same dim and fingerprint; at dim 2^14 both files list their
        # buckets, so the model's columns tell the two fits apart.
        cfg = tmp_path / "big.cfg"
        cfg.write_text(
            "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
            "[experiment big]\ndim=16384\nepochs=1\n",
            encoding="utf-8",
        )
        for split in ("train", "dev"):
            assert cli.main(
                [
                    "--config", str(cfg),
                    "train",
                    "--in", corpus_dir["paths"][split],
                    "--level", "country",
                    "--vocab", corpus_dir["paths"]["vocab"],
                    "--out-model", str(tmp_path / f"{split}.bin"),
                    "--out-idf", str(tmp_path / f"{split}.idf"),
                ]
            ) == 0
        capsys.readouterr()
        model = load_model(str(tmp_path / "train.bin"), str(tmp_path / "train.idf"))
        dev = load_model(str(tmp_path / "dev.bin"), str(tmp_path / "dev.idf"))
        assert 4 * model.idf.columns.size <= model.idf.dim
        assert model.feature_fingerprint == dev.feature_fingerprint
        out = tmp_path / "s.csv"

        def predict(idf):
            return cli.main(
                [
                    "--config", str(cfg),
                    "predict",
                    "--model", str(tmp_path / "train.bin"),
                    "--idf", str(tmp_path / idf),
                    "--in", corpus_dir["paths"]["test"],
                    "--out", str(out),
                ]
            )

        rc = predict("dev.idf")
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "not fitted together" in err, err
        assert "Traceback" not in err
        assert not out.exists()
        assert predict("train.idf") == 0
        assert len(read_submission(str(out))) == 32
        capsys.readouterr()

    def test_fuller_files_of_other_fits(self, tmp_path, capsys):
        # grid-wide's files at dim 2^13 list more than a quarter of the
        # buckets; seed 101's model lists buckets seed 7's idf does not.
        runs = {}
        for seed in (101, 7):
            fixture = fixtures.write_fixture("grid-wide", seed, str(tmp_path / f"data{seed}"))
            out = tmp_path / f"out{seed}"
            assert cli.main(["benchmark", fixture.config_path, "--out-dir", str(out)]) == 0
            _, dim, _, width = struct.unpack("<IIII", (out / "model.bin").read_bytes()[8:24])
            assert dim == 1 << 13 and 4 * width > dim
            runs[seed] = fixture, out
        capsys.readouterr()
        fixture, out = runs[101]
        grid = (out / "grid.tsv").read_text(encoding="utf-8").splitlines()[1:]
        selected = next(line.split("\t")[0] for line in grid if line.endswith("\t1"))
        sub = tmp_path / "s.csv"

        def predict(idf_path):
            return cli.main(
                [
                    "--config", fixture.config_path,
                    "predict",
                    "--experiment", selected,
                    "--model", str(out / "model.bin"),
                    "--idf", str(idf_path),
                    "--in", fixture.paths["test"],
                    "--out", str(sub),
                ]
            )

        def refused(idf_path, message):
            rc = predict(idf_path)
            err = capsys.readouterr().err
            assert rc == 1
            assert err.startswith("error:") and message in err, err
            assert "Traceback" not in err
            assert not sub.exists()

        refused(runs[7][1] / "idf.bin", "not fitted together")
        # The idf table written whole, as earlier versions wrote it: a
        # document frequency for every bucket and no ids.
        idf = load_model(str(out / "model.bin"), str(out / "idf.bin")).idf
        df = np.zeros(idf.dim, dtype="<u4")
        df[idf.columns] = idf.df
        whole = tmp_path / "whole.idf"
        whole.write_bytes(
            b"NADIIDF2" + struct.pack("<III", idf.dim, idf.doc_count, idf.dim) + df.tobytes()
        )
        refused(whole, f"{whole}: expected")
        assert predict(out / "idf.bin") == 0
        assert sub.read_bytes() == (out / "submission.csv").read_bytes()
        capsys.readouterr()

    def test_unknown_experiment_name(self, corpus_dir, trained, tmp_path, capsys):
        rc = cli.main(
            [
                "--config", corpus_dir["config"],
                "predict",
                "--model", trained["model"],
                "--idf", trained["idf"],
                "--in", corpus_dir["paths"]["test"],
                "--out", str(tmp_path / "s.csv"),
                "--experiment", "ghost",
            ]
        )
        assert rc == 1
        assert "ghost" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_experiment_without_config_is_an_error(
        self, corpus_dir, trained, tmp_path, capsys, command
    ):
        if command == "train":
            argv = [
                "train",
                "--in", corpus_dir["paths"]["train"],
                "--level", "country",
                "--vocab", corpus_dir["paths"]["vocab"],
                "--out-model", str(tmp_path / "m.bin"),
                "--out-idf", str(tmp_path / "i.bin"),
            ]
        else:
            argv = [
                "predict",
                "--model", trained["model"],
                "--idf", trained["idf"],
                "--in", corpus_dir["paths"]["test"],
                "--out", str(tmp_path / "s.csv"),
            ]
        rc = cli.main(argv + ["--experiment", "nosuch"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "--config" in err
        assert not os.listdir(tmp_path)


class TestCorruptArtifacts:
    """A cut model or idf file gives a one-line error, never a traceback."""

    @pytest.mark.parametrize("which", ["model", "idf"])
    def test_predict_on_cut_file(self, corpus_dir, trained, tmp_path, capsys, which):
        blob = Path(trained[which]).read_bytes()
        if which == "model":
            model = load_model(trained["model"], trained["idf"])
            header = 24 + sum(
                4 + len(text.encode("utf-8"))
                for text in model.class_labels + [model.feature_fingerprint]
            )
        else:
            header = 20
        cut_path = tmp_path / f"cut.{which}"
        paths = dict(trained, **{which: str(cut_path)})
        for cut in range(header + 9):
            cut_path.write_bytes(blob[:cut])
            rc = cli.main(
                [
                    "predict",
                    "--model", paths["model"],
                    "--idf", paths["idf"],
                    "--in", corpus_dir["paths"]["test"],
                    "--out", str(tmp_path / "s.csv"),
                ]
            )
            err = capsys.readouterr().err
            assert rc == 1, cut
            assert err.startswith("error:"), (cut, err)
            assert "Traceback" not in err

    def test_predict_on_fallback_outside_the_classes(
        self, corpus_dir, trained, tmp_path, capsys
    ):
        blob = bytearray(Path(trained["model"]).read_bytes())
        num_classes = struct.unpack("<I", blob[8:12])[0]
        blob[16:20] = struct.pack("<I", num_classes)
        bad = tmp_path / "bad.model"
        bad.write_bytes(bytes(blob))
        rc = cli.main(
            [
                "predict",
                "--model", str(bad),
                "--idf", trained["idf"],
                "--in", corpus_dir["paths"]["test"],
                "--out", str(tmp_path / "s.csv"),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "fallback class" in err, err
        assert "Traceback" not in err

    def test_predict_on_non_finite_weights(self, corpus_dir, trained, tmp_path, capsys):
        model = load_model(trained["model"], trained["idf"])
        model.weights[:] = float("nan")
        bad = tmp_path / "nan.model"
        save_model(model, str(bad), str(tmp_path / "nan.idf"))
        out = tmp_path / "s.csv"
        rc = cli.main(
            [
                "predict",
                "--model", str(bad),
                "--idf", str(tmp_path / "nan.idf"),
                "--in", corpus_dir["paths"]["test"],
                "--out", str(out),
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "not finite" in err, err
        assert not out.exists()


class TestEvaluateAlignment:
    def write_gold(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text(
            "id\ttweet\tcountry\tprovince\na\tx\tEgypt\t\nb\ty\tIraq\t\n",
            encoding="utf-8",
        )
        return str(path)

    def test_missing_prediction(self, tmp_path, capsys):
        gold = self.write_gold(tmp_path)
        pred = tmp_path / "pred.csv"
        pred.write_text("a,Egypt\n", encoding="utf-8")
        rc = cli.main(["evaluate", "--gold", gold, "--pred", str(pred), "--level", "country"])
        assert rc == 1
        assert "b" in capsys.readouterr().err

    def test_prediction_file_with_a_leading_bom(self, tmp_path, capsys):
        gold = self.write_gold(tmp_path)
        pred = tmp_path / "pred.csv"
        pred.write_text("\ufeffa,Egypt\nb,Iraq\n", encoding="utf-8")
        rc = cli.main(["evaluate", "--gold", gold, "--pred", str(pred), "--level", "country"])
        assert rc == 0, capsys.readouterr().err
        capsys.readouterr()

    def test_duplicate_prediction_id(self, tmp_path, capsys):
        gold = self.write_gold(tmp_path)
        pred = tmp_path / "pred.csv"
        pred.write_text("a,Egypt\na,Iraq\nb,Iraq\n", encoding="utf-8")
        rc = cli.main(["evaluate", "--gold", gold, "--pred", str(pred), "--level", "country"])
        assert rc == 1
        assert "duplicate" in capsys.readouterr().err

    def test_duplicate_prediction_id_names_both_lines(self, tmp_path, capsys):
        gold = self.write_gold(tmp_path)
        pred = tmp_path / "pred.csv"
        pred.write_text("a,Egypt\nb,Iraq\na,Iraq\n", encoding="utf-8")
        rc = cli.main(["evaluate", "--gold", gold, "--pred", str(pred), "--level", "country"])
        assert rc == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: {pred}:3: duplicate id 'a' (first at line 1)\n"
        )

    def test_extra_prediction(self, tmp_path, capsys):
        gold = self.write_gold(tmp_path)
        pred = tmp_path / "pred.csv"
        pred.write_text("a,Egypt\nb,Iraq\nzz,Iraq\n", encoding="utf-8")
        rc = cli.main(["evaluate", "--gold", gold, "--pred", str(pred), "--level", "country"])
        assert rc == 1
        capsys.readouterr()

    def test_province_level_requires_vocab(self, tmp_path, capsys):
        gold = self.write_gold(tmp_path)
        pred = tmp_path / "pred.csv"
        pred.write_text("a,Egypt\nb,Iraq\n", encoding="utf-8")
        rc = cli.main(["evaluate", "--gold", gold, "--pred", str(pred), "--level", "province"])
        assert rc == 1
        assert "--vocab" in capsys.readouterr().err


class TestBenchmark:
    def test_end_to_end_outputs(self, corpus_dir, tmp_path, capsys):
        out_dir = tmp_path / "run1"
        rc = cli.main(
            ["benchmark", corpus_dir["config"], "--out-dir", str(out_dir)]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "selected: trained" in stdout
        for name in ("grid.tsv", "submission.csv", "model.bin", "idf.bin", "report.txt"):
            assert (out_dir / name).exists(), name
        grid_lines = (out_dir / "grid.tsv").read_text(encoding="utf-8").splitlines()
        assert len(grid_lines) == 3
        assert grid_lines[1].startswith("trained\t")
        assert grid_lines[1].endswith("\t1")
        assert grid_lines[2].startswith("control\t")
        assert grid_lines[2].endswith("\t0")

    def test_normalizes_each_record_once(self, corpus_dir, tmp_path, capsys, monkeypatch):
        # Both experiments of the config share one text preparation, and
        # finalize reuses the grid's texts of train and dev.
        paths = corpus_dir["paths"]
        vocab = LabelVocab.from_file(paths["vocab"])
        records = sum(
            len(load_corpus(paths[split], vocab=vocab))
            for split in ("train", "dev", "test")
        )
        calls = []
        real_normalize = normalizer.normalize

        def spy_normalize(text, *args, **kwargs):
            calls.append(text)
            return real_normalize(text, *args, **kwargs)

        monkeypatch.setattr(normalizer, "normalize", spy_normalize)
        rc = cli.main(["benchmark", corpus_dir["config"], "--out-dir", str(tmp_path / "out")])
        capsys.readouterr()
        assert rc == 0
        assert len(calls) == records

    def test_maps_labels_to_classes_once(self, corpus_dir, tmp_path, capsys, monkeypatch):
        # Splits maps train and dev to class ids once, and every fit, the
        # grid's and finalize's, takes its slice of those ids.
        paths = corpus_dir["paths"]
        vocab = LabelVocab.from_file(paths["vocab"])
        labeled = sum(len(load_corpus(paths[split], vocab=vocab)) for split in ("train", "dev"))
        calls = []
        real_classes = LabelVocab.classes

        def spy_classes(self, records, level):
            calls.append(len(records))
            return real_classes(self, records, level)

        monkeypatch.setattr(LabelVocab, "classes", spy_classes)
        rc = cli.main(["benchmark", corpus_dir["config"], "--out-dir", str(tmp_path / "out")])
        capsys.readouterr()
        assert rc == 0
        assert calls == [labeled]

    def test_ids_in_train_and_dev_fail_before_the_grid(self, tmp_path, capsys):
        train = tmp_path / "train.tsv"
        train.write_text("t1\tشلونك\tIraq\nt2\tازيك\tEgypt\n", encoding="utf-8")
        dev = tmp_path / "dev.tsv"
        dev.write_text("d1\tكيفك\tIraq\nt1\tعامل ايه\tEgypt\n", encoding="utf-8")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"format=1\n[data]\ntrain={train}\ndev={dev}\ntest={dev}\n"
            "level=country\nregister=da\n[experiment e]\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert cli.main(["benchmark", str(cfg), "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: id 't1' appears in both splits\n")
        assert not out.exists()

    def test_config_file_is_required(self, corpus_dir, tmp_path, capsys):
        rc = cli.main(
            ["--config", corpus_dir["config"], "benchmark", "--out-dir", str(tmp_path / "out")]
        )
        assert rc == 2
        assert "config_file" in capsys.readouterr().err

    def test_dim_the_artifacts_cannot_store(self, corpus_dir, tmp_path, capsys):
        config = synthcorpus.write_benchmark_config(
            str(tmp_path),
            corpus_dir["paths"],
            dim=1 << 12,
            extra_experiments="\n[experiment huge]\ndim=4294967296\nepochs=1\n",
        )
        rc = cli.main(["benchmark", config, "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "2**31" in err
        assert "Traceback" not in err

    def test_reruns_are_byte_identical(self, corpus_dir, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert cli.main(["benchmark", corpus_dir["config"], "--out-dir", str(a)]) == 0
        assert cli.main(["benchmark", corpus_dir["config"], "--out-dir", str(b)]) == 0
        capsys.readouterr()
        for name in ("grid.tsv", "submission.csv", "model.bin", "idf.bin", "report.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_predict_refuses_another_text_preparation(self, corpus_dir, tmp_path, capsys):
        # Same features as predict's default experiment at the idf's dim;
        # only the text preparation differs.
        paths = corpus_dir["paths"]
        config = tmp_path / "prep.cfg"
        config.write_text(
            "format=1\n[data]\n"
            + "".join(f"{split}={paths[split]}\n" for split in ("train", "dev", "test", "vocab"))
            + "level=country\nregister=da\n"
            "[experiment prep]\ndim=4096\nepochs=2\nsegment=true\nmax_seq_len=40\n",
            encoding="utf-8",
        )
        out = tmp_path / "run"
        assert cli.main(["benchmark", str(config), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        predict = ["predict", "--model", str(out / "model.bin"), "--idf", str(out / "idf.bin"),
                   "--in", paths["test"], "--out", str(tmp_path / "sub.csv")]
        assert cli.main(predict) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "text preparation" in err
        assert not (tmp_path / "sub.csv").exists()
        assert cli.main(["--config", str(config)] + predict) == 0
        capsys.readouterr()
        assert (tmp_path / "sub.csv").read_bytes() == (out / "submission.csv").read_bytes()

    def test_predict_refuses_another_lexicon(self, corpus_dir, tmp_path, capsys):
        # With segmentation on, the fingerprint covers the lexicon: a
        # model trained with --lexicon serves only with the same one.
        paths = corpus_dir["paths"]
        config = tmp_path / "seg.cfg"
        config.write_text(
            "format=1\n[data]\n"
            + "".join(f"{split}={paths[split]}\n" for split in ("train", "dev", "test", "vocab"))
            + "level=country\nregister=da\n[experiment seg]\ndim=4096\nepochs=2\nsegment=true\n",
            encoding="utf-8",
        )
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("[prefixes]\nف\nو\n[suffixes]\nها\n", encoding="utf-8")
        out = tmp_path / "run"
        assert cli.main(["benchmark", str(config), "--out-dir", str(out),
                         "--lexicon", str(lexicon)]) == 0
        trained = [str(tmp_path / "model.bin"), str(tmp_path / "idf.bin")]
        assert cli.main(["--config", str(config), "train", "--in", paths["train"],
                         "--level", "country", "--vocab", paths["vocab"],
                         "--out-model", trained[0], "--out-idf", trained[1],
                         "--lexicon", str(lexicon)]) == 0
        capsys.readouterr()
        sub = tmp_path / "sub.csv"
        for model, idf in [trained, (str(out / "model.bin"), str(out / "idf.bin"))]:
            sub.unlink(missing_ok=True)
            predict = ["--config", str(config), "predict", "--model", model, "--idf", idf,
                       "--in", paths["test"], "--out", str(sub)]
            assert cli.main(predict) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: model was trained with fingerprint"), err
            assert not sub.exists()
            assert cli.main(predict + ["--lexicon", str(lexicon)]) == 0
            capsys.readouterr()
        # The last predict read the benchmark's files: its submission,
        # byte for byte.
        assert sub.read_bytes() == (out / "submission.csv").read_bytes()

    def test_seed_override_changes_model(self, corpus_dir, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert cli.main(["benchmark", corpus_dir["config"], "--out-dir", str(a)]) == 0
        assert cli.main(
            ["--seed", "123", "benchmark", corpus_dir["config"], "--out-dir", str(b)]
        ) == 0
        capsys.readouterr()
        assert (a / "model.bin").read_bytes() != (b / "model.bin").read_bytes()


def run_module(*args):
    """Run `python -m dialectid` on the package these tests import, also
    when it is found through pytest's pythonpath rather than PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dialectid.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "dialectid", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


@pytest.mark.parametrize("command", ["train", "benchmark"])
def test_diverging_training_is_an_error(tmp_path, command):
    # At learning rate 1e308 the weights overflow in the third epoch.
    # The three splits share their rows but not their ids.
    split = ("id\ttweet\tcountry\n{0}1\tشلونك اليوم\tIraq\n{0}2\tازيك يا باشا\tEgypt\n"
             "{0}3\tكيفك خيي\tSyria\n")
    for name in ("train", "dev", "test"):
        (tmp_path / f"{name}.tsv").write_text(split.format(name), encoding="utf-8")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        f"format=1\n[data]\ntrain={tmp_path / 'train.tsv'}\ndev={tmp_path / 'dev.tsv'}\n"
        f"test={tmp_path / 'test.tsv'}\nlevel=country\nregister=da\n"
        "[experiment e]\nlearning_rate=1e308\nl2=0\nepochs=6\nbatch_size=1\n",
        encoding="utf-8",
    )
    if command == "train":
        args = ["--config", str(cfg), "train", "--in", str(tmp_path / "train.tsv"),
                "--level", "country", "--out-model", str(tmp_path / "m.bin"),
                "--out-idf", str(tmp_path / "i.bin")]
    else:
        args = ["benchmark", str(cfg), "--out-dir", str(tmp_path / "out")]
    proc = run_module(*args)
    assert proc.returncode == 1
    assert proc.stderr == "error: non-finite parameters after epoch 2\n"


def test_module_entry_point_runs(corpus_dir):
    proc = run_module("stats", "--in", corpus_dir["paths"]["train"], "--level", "country")
    assert proc.returncode == 0
    assert proc.stdout.endswith("total\t100\n")


def test_help_exits_zero():
    proc = run_module("--help")
    assert proc.returncode == 0
    assert "normalize" in proc.stdout
    assert "benchmark" in proc.stdout


def test_main_freezes_the_heap_once_per_process(corpus_dir):
    # A fresh interpreter: the test process may have frozen its heap.
    script = (
        "import gc, sys\n"
        "import dialectid\n"
        "from dialectid import cli\n"
        "counts = [gc.get_freeze_count()]\n"
        "args = ['stats', '--in', sys.argv[1], '--level', 'country']\n"
        "for _ in range(2):\n"
        "    assert cli.main(args) == 0\n"
        "    counts.append(gc.get_freeze_count())\n"
        "print(*counts)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(dialectid.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script, corpus_dir["paths"]["train"]],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    imported, first, second = map(int, proc.stdout.splitlines()[-1].split())
    assert imported == 0
    assert first > 0
    assert second == first


# The flags of each subcommand.  --lexicon and --presegmented, and
# --level and --vocab, are declared once each and shared.
SUBCOMMAND_FLAGS = {
    "normalize": {"-h", "--in", "--out", "--segment", "--no-spacing", "--max-repeat",
                  "--lexicon", "--presegmented"},
    "stats": {"-h", "--in", "--level", "--vocab"},
    "train": {"-h", "--in", "--level", "--vocab", "--experiment", "--out-model", "--out-idf",
              "--lexicon", "--presegmented"},
    "evaluate": {"-h", "--gold", "--pred", "--level", "--vocab"},
    "predict": {"-h", "--model", "--idf", "--in", "--out", "--experiment", "--lexicon",
                "--presegmented"},
    "benchmark": {"-h", "--out-dir", "--lexicon", "--presegmented"},
}


@pytest.mark.parametrize("command", SUBCOMMAND_FLAGS)
def test_subcommand_help_lists_its_flags(command, capsys):
    assert cli.main([command, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert set(re.findall(r"--?[a-z][a-z-]*", usage)) == SUBCOMMAND_FLAGS[command]
