"""Unit tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.data import read_dataset, write_dataset


@pytest.fixture
def dataset_path(tmp_path):
    p = tmp_path / "d.f64"
    # delta=2000 so pairwise np.sum visibly misses the exact zero
    main(["generate", "sumzero", str(p), "-n", "5000", "--delta", "2000"])
    return p


class TestGenerate:
    def test_writes_file(self, tmp_path, capsys):
        p = tmp_path / "g.f64"
        rc = main(["generate", "well", str(p), "-n", "1000", "--delta", "50",
                   "--seed", "3"])
        assert rc == 0
        data = read_dataset(p)
        assert data.size == 1000 and (data > 0).all()
        assert "wrote 1,000 values" in capsys.readouterr().out

    def test_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.f64", tmp_path / "b.f64"
        main(["generate", "random", str(p1), "-n", "100", "--seed", "9"])
        main(["generate", "random", str(p2), "-n", "100", "--seed", "9"])
        assert (read_dataset(p1) == read_dataset(p2)).all()


class TestSum:
    @pytest.mark.parametrize(
        "method", ["sparse", "small", "dense", "ifastsum", "hybrid",
                   "mapreduce-sparse", "mapreduce-small"]
    )
    def test_exact_methods_report_zero(self, dataset_path, capsys, method):
        rc = main(["sum", str(dataset_path), "--method", method, "--check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sum    : 0.0" in out
        assert "OK (correctly rounded)" in out

    def test_naive_differs(self, dataset_path, capsys):
        rc = main(["sum", str(dataset_path), "--method", "naive"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sum    : 0.0" not in out  # cancellation defeats np.sum


class TestInfo:
    def test_reports(self, dataset_path, capsys):
        rc = main(["info", str(dataset_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n              : 5,000" in out
        assert "exact sum      : 0.0" in out
        assert "condition C(X) : inf" in out
        assert "naive correct  : False" in out

    def test_empty_dataset(self, tmp_path, capsys):
        p = tmp_path / "e.f64"
        write_dataset(p, np.array([]))
        assert main(["info", str(p)]) == 0
        assert "n              : 0" in capsys.readouterr().out


class TestParsing:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_method(self, dataset_path):
        with pytest.raises(SystemExit):
            main(["sum", str(dataset_path), "--method", "quantum"])


class TestServe:
    def test_parser_accepts_serve_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--port", "0", "--shards", "2",
             "--state-path", "/tmp/x.json", "--no-shutdown-op"]
        )
        assert args.port == 0 and args.shards == 2
        assert args.state_path == "/tmp/x.json" and args.no_shutdown_op
        # the service has no queue settings to take
        for gone in (["--queue-depth", "8"], ["--policy", "reject"]):
            with pytest.raises(SystemExit):
                parser.parse_args(["serve", *gone])

    def test_serve_subprocess_roundtrip(self, tmp_path):
        """`python -m repro serve` end to end: boot, ingest, shutdown,
        state persisted, then restored on a second boot."""
        import asyncio
        import os
        import re
        import subprocess
        import sys

        from repro.serve import ReproServeClient

        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        state = tmp_path / "state.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def boot():
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--shards", "2", "--state-path", str(state)],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, env=env,
            )
            line = ""
            while "listening on" not in line:
                line = proc.stdout.readline()
                assert line, "server exited before listening"
            port = int(re.search(r":(\d+) ", line).group(1))
            return proc, port

        async def first_session(port):
            client = await ReproServeClient.connect(port=port)
            await client.add_array("persisted", [1e16, 1.0, -1e16, 2.0])
            assert await client.value("persisted") == 3.0
            await client.shutdown()
            await client.close()

        async def second_session(port):
            client = await ReproServeClient.connect(port=port)
            assert await client.value("persisted") == 3.0
            assert await client.count("persisted") == 4
            await client.shutdown()
            await client.close()

        proc, port = boot()
        try:
            asyncio.run(first_session(port))
            assert proc.wait(timeout=30) == 0
            assert state.exists()
            proc, port = boot()
            asyncio.run(second_session(port))
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
