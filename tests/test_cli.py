"""End-to-end command-line behavior: output text and exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reslab
from reslab.cli import main

P5_G6 = "DhC"
C4_G6 = "Cl"
K3_G6 = "Bw"
A4_G6 = "FFzvO"
A3_G6 = "EFz_"


def run(args, stdin: str | None = None, capsys=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestResidue:
    def test_graph_argument(self, capsys):
        code, out, _ = run(["residue", C4_G6], capsys=capsys)
        assert code == 0 and out == "R = 2\n"

    def test_degseq_argument(self, capsys):
        code, out, _ = run(["residue", "--degseq", "3,1,1,1"], capsys=capsys)
        assert code == 0 and out == "R = 3\n"

    def test_exactly_one_input(self, capsys):
        code, _, err = run(["residue"], capsys=capsys)
        assert code == 2 and "error" in err
        code, _, err = run(["residue", C4_G6, "--degseq", "2,2"], capsys=capsys)
        assert code == 2

    def test_at_file(self, tmp_path, capsys):
        p = tmp_path / "g.g6"
        p.write_text("\n" + P5_G6 + "\nBw\n")  # first record wins
        code, out, _ = run(["residue", f"@{p}"], capsys=capsys)
        assert code == 0 and out == "R = 2\n"
        p.write_text("\n  \n")
        code, out, err = run(["residue", f"@{p}"], capsys=capsys)
        assert code == 2 and out == "" and "empty record" in err

    def test_stdin(self, capsys, monkeypatch):
        code, out, _ = run(
            ["residue", "-"], stdin=P5_G6 + "\n", capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 0 and out == "R = 2\n"
        code, out, err = run(
            ["residue", "-"], stdin="\n  \n", capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 2 and out == "" and "empty record" in err

    def test_parse_errors_exit_2(self, capsys):
        code, _, err = run(["residue", "~zz"], capsys=capsys)
        assert code == 2 and "error" in err
        code, _, err = run(["residue", "--degseq", "2,banana"], capsys=capsys)
        assert code == 2
        code, _, err = run(["residue", "@/no/such/file"], capsys=capsys)
        assert code == 2


class TestHHTrace:
    def test_graphic(self, capsys):
        code, out, _ = run(["hh-trace", "--degseq", "2,2,2,2"], capsys=capsys)
        assert code == 0
        assert out == "2 2 2 2\n2 1 1\n0 0\ngraphic; terminal zeros = 2\n"

    def test_nongraphic_shows_prefix_and_step(self, capsys):
        code, out, err = run(["hh-trace", "--degseq", "3,3,3,1"], capsys=capsys)
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "3 3 3 1"
        assert lines[1] == "2 2 0"
        assert "not graphic" in lines[2] and "step 1" in lines[2]

    def test_nongraphic_at_step_zero(self, capsys):
        code, out, _ = run(["hh-trace", "--degseq", "3,2,1"], capsys=capsys)
        assert code == 1
        assert out.splitlines()[0] == "3 2 1"

    def test_empty_sequence(self, capsys):
        code, out, _ = run(["hh-trace", "--degseq", ""], capsys=capsys)
        assert code == 0
        assert out == "(empty)\ngraphic; terminal zeros = 0\n"


class TestMaxine:
    def test_single_run_low(self, capsys):
        code, out, _ = run(["maxine", P5_G6], capsys=capsys)
        assert code == 0
        assert out == "deletions: 1 3\nsurvivors: {0,2,4}\nM = 3\n"

    def test_single_run_high(self, capsys):
        code, out, _ = run(["maxine", P5_G6, "--policy", "high"], capsys=capsys)
        assert out.splitlines()[0] == "deletions: 3 1"

    def test_random_deterministic(self, capsys):
        a = run(["maxine", P5_G6, "--policy", "random", "--seed", "5"], capsys=capsys)
        b = run(["maxine", P5_G6, "--policy", "random", "--seed", "5"], capsys=capsys)
        assert a == b and a[0] == 0

    def test_all_sizes(self, capsys):
        code, out, _ = run(["maxine", P5_G6, "--all"], capsys=capsys)
        assert code == 0
        assert out == "achievable M: {2,3}\nmin M = 2\nmax M = 3\n"
        code, out, _ = run(["maxine", C4_G6, "--all"], capsys=capsys)
        assert out == "achievable M: {2}\nmin M = 2\nmax M = 2\n"


class TestAlphaAndMDI:
    def test_alpha(self, capsys):
        code, out, _ = run(["alpha", P5_G6], capsys=capsys)
        assert code == 0 and out == "alpha = 3\n"

    def test_alpha_enumerate(self, capsys):
        code, out, _ = run(["alpha", C4_G6, "--enumerate"], capsys=capsys)
        assert code == 0
        assert out == "alpha = 2\n{0,2}\n{1,3}\n"

    def test_mdi(self, capsys):
        code, out, _ = run(["mdi", P5_G6], capsys=capsys)
        assert code == 0
        assert out == "alpha = 3\nmaximum independent sets: 1\nmdi vertices: {2}\n"
        code, out, _ = run(["mdi", C4_G6], capsys=capsys)
        assert out.splitlines()[2] == "mdi vertices: {}"


class TestDetect:
    def test_present_with_embedding(self, capsys):
        code, out, _ = run(["detect", P5_G6, "--patterns", "c4,p5"], capsys=capsys)
        assert code == 1
        assert out == "c4: absent\np5: present at 0,1,2,3,4\n"

    def test_absent_exit_zero(self, capsys):
        code, out, _ = run(["detect", K3_G6, "--patterns", "c4,p5"], capsys=capsys)
        assert code == 0
        assert out == "c4: absent\np5: absent\n"

    def test_p5star(self, capsys):
        code, out, _ = run(["detect", P5_G6, "--patterns", "p5star"], capsys=capsys)
        assert code == 1 and out == "p5star: present\n"
        code, out, _ = run(["detect", C4_G6, "--patterns", "p5star"], capsys=capsys)
        assert code == 0 and out == "p5star: absent\n"

    def test_family_token(self, capsys):
        code, out, _ = run(["detect", A4_G6, "--patterns", "f"], capsys=capsys)
        assert code == 1
        assert "f[A4]: present" in out

    def test_family_skips_unverified_members(self, capsys):
        # A3's own graph is not searched for (it fails the MDI filter),
        # and no other six-vertex member embeds in it
        code, out, _ = run(["detect", A3_G6, "--patterns", "f"], capsys=capsys)
        assert code == 0
        assert "present" not in out

    def test_family_cap_token(self, capsys):
        code, out, _ = run(["detect", A4_G6, "--patterns", "f:5"], capsys=capsys)
        assert code == 0 and out == ""

    def test_empty_selection(self, capsys):
        # selecting nothing must not read as "absent"
        code, out, err = run(["detect", P5_G6, "--patterns", ","], capsys=capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: --patterns ',' names no pattern")

    def test_negative_family_cap(self, capsys):
        code, out, err = run(["detect", P5_G6, "--patterns", "f:-3"], capsys=capsys)
        assert code == 2 and out == ""
        assert "'f:-3'" in err and "non-negative" in err

    def test_unknown_token(self, capsys):
        code, _, err = run(["detect", P5_G6, "--patterns", "c7"], capsys=capsys)
        assert code == 2 and "unknown pattern token" in err

    def test_bad_family_cap(self, capsys):
        code, out, err = run(["detect", P5_G6, "--patterns", "f:x"], capsys=capsys)
        assert code == 2 and out == ""
        assert "'f:x'" in err and "f:MAXN" in err


class TestGenF:
    def test_verified_member(self, capsys):
        code, out, _ = run(["gen-f", "--case", "A", "--n", "4"], capsys=capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"{A4_G6} v=0;u=1;w=2;Q'=;N'=3,4,5,6"
        assert lines[1] == "mdi_verified: true"

    def test_unverified_member_needs_raw(self, capsys):
        code, _, err = run(["gen-f", "--case", "A", "--n", "3"], capsys=capsys)
        assert code == 1 and "--raw" in err
        code, out, _ = run(["gen-f", "--case", "A", "--n", "3", "--raw"], capsys=capsys)
        assert code == 0
        assert out.splitlines()[1] == "mdi_verified: false"

    def test_c_needs_variant(self, capsys):
        code, _, err = run(["gen-f", "--case", "C", "--n", "3"], capsys=capsys)
        assert code == 2 and "variant" in err

    def test_core_size_validation(self, capsys):
        code, _, err = run(["gen-f", "--case", "A", "--n", "2"], capsys=capsys)
        assert code == 2

    def test_bad_case_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["gen-f", "--case", "D", "--n", "3"])
        assert ei.value.code == 2
        capsys.readouterr()


class TestVerifyCommand:
    def test_help_lists_every_check(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        for check in reslab.CheckId:
            assert f"  {check.value}: " in out, check
        assert "--help-checks" not in out

    def test_clean_scan(self, capsys):
        code, out, err = run(
            ["verify", "--check", "thm2_sandwich", "--enum-n", "4", "--shards", "2"],
            capsys=capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "check:           thm2_sandwich"
        assert lines[1] == "source:          enumeration(n=4)"
        assert lines[2] == "scanned:         64"
        assert lines[3] == "applicable:      64"
        assert lines[4] == "counterexamples: 0"
        assert lines[5] == "skipped_records: 0"
        assert "elapsed:" in err  # timing on stderr only

    def test_counterexamples_exit_one(self, capsys):
        code, out, _ = run(
            ["verify", "--check", "f_members_are_mdi", "--enum-n", "3", "--shards", "1"],
            capsys=capsys,
        )
        assert code == 1
        assert "counterexamples: 7" in out
        assert "  Bw" in out.splitlines()

    def test_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            [
                "verify",
                "--check",
                "thm1_residue_le_alpha",
                "--enum-n",
                "3",
                "--shards",
                "1",
                "--json",
                str(out_path),
            ],
            capsys=capsys,
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["check"] == "thm1_residue_le_alpha"
        assert data["scanned"] == 8
        assert data["counterexamples"] == []

    def test_hunt_mode(self, capsys):
        code, out, _ = run(
            [
                "verify",
                "--check",
                "f_members_are_mdi",
                "--enum-n",
                "3",
                "--stop-after",
                "2",
            ],
            capsys=capsys,
        )
        assert code == 1
        assert out == "B_\nBO\nfound 2 counterexample(s)\n"

    def test_hunt_mode_clean(self, capsys):
        code, out, _ = run(
            [
                "verify",
                "--check",
                "thm2_sandwich",
                "--enum-n",
                "3",
                "--stop-after",
                "1",
            ],
            capsys=capsys,
        )
        assert code == 0 and out == "found 0 counterexample(s)\n"

    def test_corpus_scan(self, tmp_path, capsys):
        p = tmp_path / "c.g6"
        p.write_text(f"{K3_G6}\njunk!!\n{C4_G6}\n")
        code, out, err = run(
            ["verify", "--check", "thm1_residue_le_alpha", "--corpus", str(p), "--shards", "1"],
            capsys=capsys,
        )
        assert code == 0
        assert "scanned:         2" in out
        assert "skipped_records: 1" in out
        assert "skipping record" in err

    def test_unknown_check(self, capsys):
        code, _, err = run(
            ["verify", "--check", "wat", "--enum-n", "3"], capsys=capsys
        )
        assert code == 2 and "known checks:" in err

    def test_missing_corpus(self, capsys):
        code, _, err = run(
            ["verify", "--check", "thm2_sandwich", "--corpus", "/no/such.g6"],
            capsys=capsys,
        )
        assert code == 2 and "no such corpus" in err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
    def test_fifo_corpus_rejected(self, tmp_path, capsys, monkeypatch):
        # a scan counts the records, then seeks back: a pipe cannot serve
        fifo = tmp_path / "c.fifo"
        os.mkfifo(fifo)

        def no_open(*args, **kwargs):
            raise AssertionError("corpus opened")

        monkeypatch.setattr(reslab.verify, "open", no_open, raising=False)
        code, out, err = run(
            ["verify", "--check", "thm2_sandwich", "--corpus", str(fifo)],
            capsys=capsys,
        )
        assert code == 2 and out == ""
        assert err == f"error: corpus must be a regular file: {fifo}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_corpus_file_on_dev_stdin(self, tmp_path):
        p = tmp_path / "c.g6"
        p.write_text(f"{K3_G6}\n{C4_G6}\n")
        args = ["--check", "thm1_residue_le_alpha", "--corpus", "/dev/stdin", "--shards", "1"]
        with open(p) as fh:
            proc = subprocess.run(
                [sys.executable, "-m", "reslab.cli", "verify", *args],
                stdin=fh,
                capture_output=True,
                text=True,
            )
        assert proc.returncode == 0, proc.stderr
        assert "scanned:         2" in proc.stdout

    def test_enum_cap_default(self, capsys, monkeypatch):
        monkeypatch.delenv("RESLAB_MAX_N", raising=False)
        code, _, err = run(
            ["verify", "--check", "thm2_sandwich", "--enum-n", "8"], capsys=capsys
        )
        assert code == 2 and "RESLAB_MAX_N" in err

    def test_enum_cap_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("RESLAB_MAX_N", "4")
        code, _, err = run(
            ["verify", "--check", "thm2_sandwich", "--enum-n", "5"], capsys=capsys
        )
        assert code == 2
        monkeypatch.setenv("RESLAB_MAX_N", "5")
        code, _, _ = run(
            ["verify", "--check", "thm2_sandwich", "--enum-n", "5", "--shards", "1"],
            capsys=capsys,
        )
        assert code == 0

    def test_enum_cap_env_garbage(self, capsys, monkeypatch):
        monkeypatch.setenv("RESLAB_MAX_N", "many")
        code, _, err = run(
            ["verify", "--check", "thm2_sandwich", "--enum-n", "3"], capsys=capsys
        )
        assert code == 2 and "must be an integer" in err

    def test_enum_n_below_range(self, capsys, monkeypatch):
        monkeypatch.delenv("RESLAB_MAX_N", raising=False)
        for n in ("-1", "0"):
            code, out, err = run(
                ["verify", "--check", "thm2_sandwich", "--enum-n", n], capsys=capsys
            )
            assert code == 2 and out == ""
            assert err == f"error: --enum-n {n} is out of range; scan sizes run from 1 to 7\n"

    def test_hard_cap_never_exceeded(self, capsys, monkeypatch):
        monkeypatch.setenv("RESLAB_MAX_N", "99")
        code, _, err = run(
            ["verify", "--check", "thm2_sandwich", "--enum-n", "9"], capsys=capsys
        )
        assert code == 2 and "cap 8" in err


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "reslab.cli", "residue", C4_G6],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "R = 2\n"

    def test_installed_script(self, tmp_path):
        # Build the launcher an install would write for the console script
        # declared in pyproject.toml, so the declared entry point is what
        # runs without the package being installed.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["reslab"]
        module, attr = target.split(":")
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        script = bin_dir / "reslab"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        script.chmod(0o755)
        src_dir = Path(reslab.__file__).resolve().parents[1]
        env = dict(os.environ)
        for var, first in (("PATH", bin_dir), ("PYTHONPATH", src_dir)):
            env[var] = os.pathsep.join(filter(None, [str(first), env.get(var)]))
        proc = subprocess.run(
            ["reslab", "alpha", P5_G6], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0
        assert proc.stdout == "alpha = 3\n"
