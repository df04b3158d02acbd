"""Command-line interface."""

import pytest

from repro.cli import (
    EXIT_CHECKPOINT,
    EXIT_DEADLINE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)

SMALL = ["--dataset", "normal", "--n", "512", "--bandwidth", "4", "--lam", "1",
         "--leaf", "64", "--smax", "32", "--neighbors", "0"]


class TestParser:
    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.command == "solve"
        assert args.dataset == "normal"
        assert args.method == "nlogn"

    def test_classify_args(self):
        args = build_parser().parse_args(
            ["classify", "--dataset", "susy", "--n", "512"]
        )
        assert args.dataset == "susy" and args.n == 512

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--dataset", "imagenet"])

    def test_rejects_missing_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "covtype" in out and "paper Acc" in out

    def test_solve_small(self, capsys):
        code = main(
            ["solve", "--dataset", "normal", "--n", "512", "--bandwidth", "4",
             "--lam", "1", "--leaf", "64", "--smax", "32", "--neighbors", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "residual" in out and "factorize" in out

    def test_solve_hybrid_small(self, capsys):
        code = main(
            ["solve", "--dataset", "susy", "--n", "512", "--method", "hybrid",
             "--level", "2", "--bandwidth", "1", "--lam", "1",
             "--leaf", "64", "--smax", "32", "--neighbors", "0"]
        )
        assert code == 0
        assert "gmres_iters" in capsys.readouterr().out

    def test_solve_distributed_small(self, capsys):
        code = main(["solve", *SMALL, "--ranks", "2", "--backend", "thread"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "dist-factorize[thread,p=2]" in out
        assert "residual" in out

    def test_classify_small(self, capsys):
        code = main(
            ["classify", "--dataset", "covtype", "--n", "512",
             "--bandwidth", "1.0", "--lam", "0.3",
             "--leaf", "64", "--smax", "48", "--neighbors", "8"]
        )
        assert code == 0
        assert "test accuracy" in capsys.readouterr().out

    def test_classify_unlabeled_dataset_fails(self, capsys):
        code = main(["classify", "--dataset", "mri", "--n", "256"])
        assert code == 2
        assert "no labels" in capsys.readouterr().err

    def test_trace_renders_span_tree(self, capsys):
        code = main(
            ["trace", "--dataset", "normal", "--n", "512", "--bandwidth", "4",
             "--lam", "1", "--leaf", "64", "--smax", "32", "--neighbors", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== span tree" in out
        for stage in ("tree", "skeletonize", "factorize", "solve"):
            assert stage in out

    def test_solve_trace_out_writes_blob(self, tmp_path, capsys):
        import json

        path = tmp_path / "run.json"
        code = main(
            ["solve", "--dataset", "normal", "--n", "512", "--bandwidth", "4",
             "--lam", "1", "--leaf", "64", "--smax", "32", "--neighbors", "0",
             "--trace-out", str(path)]
        )
        assert code == 0
        blob = json.loads(path.read_text())
        assert blob["schema"] == "repro.telemetry/v1"
        assert "stages" in blob and "spans" in blob and "metrics" in blob


class TestExitCodes:
    """Shell callers tell failure classes apart without parsing stderr."""

    def test_usage_error_is_2(self, capsys):
        code = main(["solve", *SMALL, "--leaf", "-5"])
        assert code == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_deadline_with_degrade_off_is_4(self, capsys):
        code = main(["solve", *SMALL, "--work-budget", "3", "--no-degrade"])
        assert code == EXIT_DEADLINE
        assert "deadline exceeded" in capsys.readouterr().err

    def test_tiny_budget_degrades_to_exit_0(self, capsys):
        code = main(["solve", *SMALL, "--work-budget", "3"])
        assert code == EXIT_OK
        assert "degraded" in capsys.readouterr().out

    def test_missing_checkpoint_is_5(self, tmp_path, capsys):
        code = main(["checkpoint", "verify", str(tmp_path / "nothing")])
        assert code == EXIT_CHECKPOINT
        assert "checkpoint error" in capsys.readouterr().err


class TestCheckpointCommands:
    def test_solve_writes_then_inspect_and_verify(self, tmp_path, capsys):
        ckdir = tmp_path / "cp"
        assert main(["solve", *SMALL, "--checkpoint-dir", str(ckdir)]) == EXIT_OK
        capsys.readouterr()
        assert main(["checkpoint", "inspect", str(ckdir)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "repro.checkpoint/v1" in out and "skeletons" in out
        assert main(["checkpoint", "verify", str(ckdir)]) == EXIT_OK
        assert "intact" in capsys.readouterr().out

    def test_inspect_json(self, tmp_path, capsys):
        import json

        ckdir = tmp_path / "cp"
        assert main(["solve", *SMALL, "--checkpoint-dir", str(ckdir)]) == EXIT_OK
        capsys.readouterr()
        assert main(["checkpoint", "inspect", str(ckdir), "--json"]) == EXIT_OK
        desc = json.loads(capsys.readouterr().out)
        assert desc["schema"] == "repro.checkpoint/v1"
        assert all(e["intact"] for e in desc["payloads"].values())

    def test_verify_flags_corruption(self, tmp_path, capsys):
        ckdir = tmp_path / "cp"
        assert main(["solve", *SMALL, "--checkpoint-dir", str(ckdir)]) == EXIT_OK
        pkl = next(p for p in ckdir.iterdir() if p.suffix == ".pkl")
        pkl.write_bytes(b"garbage")
        capsys.readouterr()
        assert main(["checkpoint", "verify", str(ckdir)]) == EXIT_CHECKPOINT
        assert "corrupt" in capsys.readouterr().err

    def test_solve_deadline_flag_roomy(self, capsys):
        code = main(["solve", *SMALL, "--deadline", "3600"])
        assert code == EXIT_OK
        assert "residual" in capsys.readouterr().out


class TestUpdateCommand:
    def _checkpointed_solver(self, tmp_path):
        import numpy as np

        from repro import FastKernelSolver, GaussianKernel
        from repro.config import SkeletonConfig, TreeConfig

        X = np.random.default_rng(0).standard_normal((256, 3))
        solver = FastKernelSolver(
            GaussianKernel(bandwidth=2.0),
            tree_config=TreeConfig(leaf_size=64, seed=0),
            skeleton_config=SkeletonConfig(
                tau=1e-6, max_rank=48, num_samples=96, num_neighbors=0, seed=0
            ),
        )
        solver.fit(X)
        solver.factorize(1.0)
        ckpt = str(tmp_path / "ckpt")
        solver.save_checkpoint(ckpt)
        return X, ckpt

    def test_offline_insert_rechckpoints(self, tmp_path, capsys):
        import json

        import numpy as np

        from repro import FastKernelSolver

        X, ckpt = self._checkpointed_solver(tmp_path)
        Xi = X[7] + 0.02 * np.random.default_rng(1).standard_normal((4, 3))
        npy = tmp_path / "insert.npy"
        np.save(npy, Xi)
        code = main(["update", "--checkpoint", ckpt,
                     "--insert", str(npy), "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["n_inserted"] == 4
        assert payload["previous"] != payload["model"]
        # the directory was re-checkpointed under the new fingerprint
        resumed = FastKernelSolver.resume(ckpt)
        assert resumed.n_points == 260
        assert resumed.fingerprint() == payload["model"]

    def test_offline_lambda_refit(self, tmp_path, capsys):
        import json

        _, ckpt = self._checkpointed_solver(tmp_path)
        code = main(["update", "--checkpoint", ckpt, "--lam", "0.25", "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["mode"] == "lambda"
        assert payload["previous"] == payload["model"]

    def test_update_usage_errors(self, tmp_path, capsys):
        # no update arguments at all
        assert main(["update", "--checkpoint", "x"]) == EXIT_USAGE
        # daemon and offline modes are exclusive
        assert main(["update", "--checkpoint", "x", "--host", "h",
                     "--port", "1", "--lam", "2"]) == EXIT_USAGE
        # half a daemon endpoint
        assert main(["update", "--host", "h", "--lam", "2"]) == EXIT_USAGE
        # no target at all
        assert main(["update", "--lam", "2"]) == EXIT_USAGE
        capsys.readouterr()
