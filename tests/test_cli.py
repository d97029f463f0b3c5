import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from primedir import cli, incidence, maximal, selftest
from primedir.directions import (
    DirectionSpec, construct_directions, load_direction_set, save_direction_set,
)


@pytest.fixture()
def sieved(monkeypatch):
    """The limits of every sieve the CLI runs, in call order."""
    limits = []
    real = cli.sieve_primes
    monkeypatch.setattr(cli, "sieve_primes", lambda n: limits.append(n) or real(n))
    return limits


def run(*argv) -> int:
    return cli.main(list(argv))


class TestConstruct:
    def test_writes_valid_file(self, tmp_path, capsys):
        out = tmp_path / "ds.json"
        assert run("construct", "--n", "8", "--eps", "0.5", "--seed", "7", "--out", str(out)) == 0
        assert "VALID" in capsys.readouterr().out
        ds = load_direction_set(out)
        assert len(ds.vectors) == 8

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("construct", "--n", "4", "--eps", "1.0", "--seed", "3", "--out", str(a)) == 0
        assert run("construct", "--n", "4", "--eps", "1.0", "--seed", "3", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_hash_is_sha256_of_written_file(self, tmp_path, capsys):
        # the file is the canonical JSON that its content hash covers
        out = tmp_path / "ds.json"
        assert run("construct", "--n", "4", "--eps", "1.0", "--seed", "3", "--out", str(out)) == 0
        printed = capsys.readouterr().out.split("hash=")[1].split()[0]
        blob = out.read_bytes()
        assert printed == hashlib.sha256(blob).hexdigest()[:16]
        assert blob == json.dumps(json.loads(blob), sort_keys=True, separators=(",", ":")).encode()

    def test_n_one_is_usage_error(self, tmp_path):
        assert run("construct", "--n", "1", "--eps", "0.5", "--out", str(tmp_path / "x.json")) == 3

    def test_a_with_no_rescale_usage_error(self, tmp_path, capsys):
        # --no-rescale is gone: every command rescales an unrescaled set on load
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            run("construct", "--n", "4", "--eps", "1.0", "--no-rescale", "--a", "5",
                "--out", str(out))
        assert exc.value.code == 3
        assert "unrecognized arguments: --no-rescale" in capsys.readouterr().err
        assert not out.exists()

    def test_unrescaled_library_set_gives_same_output(self, tmp_path, capsys):
        # a set saved through the library without rescaling is rescaled on load
        # with the default A, which is what construct without --a writes
        cli_ds, lib_ds = tmp_path / "cli.json", tmp_path / "lib.json"
        assert run("construct", "--n", "4", "--eps", "1.0", "--seed", "7",
                   "--out", str(cli_ds)) == 0
        save_direction_set(construct_directions(DirectionSpec(N=4, eps=1.0, seed=7)), lib_ds)
        assert load_direction_set(lib_ds).integer_vectors is None
        outputs = []
        for ds in (cli_ds, lib_ds):
            capsys.readouterr()
            assert run("incidence", "--ds", str(ds), "--s", "2",
                       "--out", str(tmp_path / "r.json")) == 0
            assert run("apply", "--ds", str(ds), "--l", "63", "--k-min", "5", "--k-max", "6",
                       "--delta", "--out", str(tmp_path / "m.pdgf")) == 0
            lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("done")]
            outputs.append((lines, (tmp_path / "r.json").read_bytes(),
                            (tmp_path / "m.pdgf").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_strict_infeasible_is_validation_error(self, tmp_path):
        rc = run("construct", "--n", "4", "--eps", "1.0", "--mode", "strict",
                 "--out", str(tmp_path / "x.json"))
        assert rc == 2


class TestMultError:
    def test_csv_written(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        assert run("mult-error", "--k-list", "10,12", "--grid", "64", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "schema,primedir.error_profile.v2"
        assert lines[1] == "k,D,sup_abs_E,sup_minor_m,argmax_alpha,s_max,truncated,wall_ms"
        rows = [line.split(",") for line in lines[2:]]
        assert [r[0] for r in rows] == ["10", "12"]
        assert float(rows[0][2]) > float(rows[1][2])  # decreasing sup error

    def test_stdout_reports_level_truncation(self, tmp_path, capsys):
        # k^17 < 2^18 at k = 2; at k = 3 the level needed (26) exceeds the cap 22
        out = tmp_path / "e.csv"
        assert run("mult-error", "--k-list", "2,3", "--grid", "32", "--out", str(out)) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if l.startswith("k=")]
        assert [r.split()[-2:] for r in rows] == [
            ["s_max=17", "truncated=False"], ["s_max=22", "truncated=True"],
        ]
        csv_rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert [r[5:7] for r in csv_rows] == [["17", "False"], ["22", "True"]]

    def test_small_d_usage_error(self, tmp_path):
        assert run("mult-error", "--k-list", "10", "--d", "16", "--grid", "32",
                   "--out", str(tmp_path / "x.csv")) == 3

    @pytest.mark.parametrize("arc_d", ["0", "-1"])
    def test_nonpositive_arc_d_usage_error(self, tmp_path, sieved, arc_d):
        assert run("mult-error", "--k-list", "10", "--grid", "32", "--arc-d", arc_d,
                   "--out", str(tmp_path / "x.csv")) == 3
        assert sieved == []  # rejected before any sieving

    @pytest.mark.parametrize("k_list", ["0", "-2", "10,0"])
    def test_scale_below_one_usage_error_before_sieve(self, tmp_path, sieved, k_list):
        # classify_arc needs k >= 1
        assert run("mult-error", f"--k-list={k_list}", "--grid", "32",
                   "--out", str(tmp_path / "x.csv")) == 3
        assert sieved == []
        assert not (tmp_path / "x.csv").exists()


class TestIncidence:
    def test_scan_and_replay(self, tmp_path, capsys):
        ds = tmp_path / "ds.json"
        rep = tmp_path / "rep.json"
        assert run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds)) == 0
        capsys.readouterr()
        assert run("incidence", "--ds", str(ds), "--s", "2", "--out", str(rep)) == 0
        # the exact branch counts no grid sample, and no center lies on a
        # third family's plane; the counts are facts of the run, not of the
        # report file
        assert ("families=4 samples_counted=0 shared_centers=0\n"
                in capsys.readouterr().out)
        doc = json.loads(rep.read_text())
        assert doc["schema"] == "primedir.overlap_report.v3"
        assert doc["baseline"] is None
        for key in ("samples_counted", "shared_centers"):
            assert key not in doc
        assert run("replay", "--ds", str(ds), "--report", str(rep)) == 0

    def test_sample_scan_counts_samples(self, tmp_path, capsys):
        ds = tmp_path / "ds.json"
        rep = tmp_path / "rep.json"
        assert run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds)) == 0
        capsys.readouterr()
        assert run("incidence", "--ds", str(ds), "--s", "2", "--variant", "k",
                   "--out", str(rep)) == 0
        # sample 158 is the first to lie in all four families, so the rest of
        # the 20 000 samples, still reported as checked, are not counted
        assert ("max_overlap=4 method=grid-sample candidates=20004 families=4 "
                "samples_counted=158 shared_centers=0\n") in capsys.readouterr().out
        assert "samples_counted" not in json.loads(rep.read_text())
        assert run("replay", "--ds", str(ds), "--report", str(rep)) == 0

    def test_thin_tubes_refused(self, tmp_path, capsys):
        # at --c1 8 the tubes are too thick for several certificates; the
        # refusal names the one that needs the largest C1 and that C1, and
        # writes nothing
        ds, rep = tmp_path / "ds.json", tmp_path / "thin.json"
        run("construct", "--n", "8", "--eps", "0.5", "--mode", "toy", "--seed", "7",
            "--out", str(ds))
        capsys.readouterr()
        assert run("incidence", "--ds", str(ds), "--s", "2", "--c1", "8", "--out", str(rep)) == 2
        assert capsys.readouterr().err == (
            "invalid argument: origin-cell certificate fails for pair (1, 5); C1 >= 44 passes it\n")
        assert not rep.exists()

    @pytest.mark.parametrize("baseline", [["--baseline", "parallel"], []], ids=["parallel", "families"])
    def test_window_wider_than_torus_refused(self, tmp_path, capsys, baseline):
        # the README set's torus has side 36028797018963968000000, below
        # 2^75, so a window of half side 2^80 fails the floor certificate, and neither scan reaches its final
        # maximum without the floor: the parallel baseline has no pair, and
        # the families' grid sample reaches 1 of 8; nothing is written
        ds, rep = tmp_path / "ds.json", tmp_path / "rep.json"
        run("construct", "--n", "8", "--eps", "0.5", "--mode", "toy", "--seed", "7",
            "--out", str(ds))
        capsys.readouterr()
        assert run("incidence", "--ds", str(ds), "--s", "2", *baseline,
                   "--window-half", str(2**80), "--out", str(rep)) == 2
        assert capsys.readouterr().err == ("invalid argument: floor certificate fails: "
                                           "the window's shorter side exceeds the torus side\n")
        assert not rep.exists()

    def test_refusal_hint_accepted(self, tmp_path, capsys):
        # the README set: every C1 below 44 gets the same hint, and 44 scans
        ds, rep = tmp_path / "ds.json", tmp_path / "rep.json"
        run("construct", "--n", "8", "--eps", "0.5", "--mode", "toy", "--seed", "7",
            "--out", str(ds))
        for c1 in ("8", "27", "42", "43"):
            capsys.readouterr()
            assert run("incidence", "--ds", str(ds), "--s", "2", "--c1", c1,
                       "--out", str(rep)) == 2
            assert capsys.readouterr().err.endswith("; C1 >= 44 passes it\n")
        assert run("incidence", "--ds", str(ds), "--s", "2", "--c1", "44", "--out", str(rep)) == 0
        assert "method=exact-candidates" in capsys.readouterr().out
        assert json.loads(rep.read_text())["C1"] == 44

    def test_baseline_report_replays(self, tmp_path, capsys):
        ds = tmp_path / "ds.json"
        rep = tmp_path / "rep.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        assert run("incidence", "--ds", str(ds), "--s", "2", "--baseline", "parallel",
                   "--out", str(rep)) == 0
        assert json.loads(rep.read_text())["baseline"] == "parallel"
        capsys.readouterr()
        assert run("replay", "--ds", str(ds), "--report", str(rep)) == 0
        assert "replay ok: witness attains 4" in capsys.readouterr().out

    def test_v2_baseline_report_refused(self, tmp_path, capsys):
        # a v2 baseline report scanned copies with no torus and no ball, which
        # replay can no longer rebuild: the file is refused by its schema, not
        # reported as a mismatch
        ds = tmp_path / "ds.json"
        rep = tmp_path / "rep.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        assert run("incidence", "--ds", str(ds), "--s", "1", "--baseline", "parallel",
                   "--out", str(rep)) == 0
        rep.write_text(rep.read_text().replace("overlap_report.v3", "overlap_report.v2"))
        capsys.readouterr()
        assert run("replay", "--ds", str(ds), "--report", str(rep)) == 2
        out = capsys.readouterr()
        assert "primedir.overlap_report.v3" in out.err
        assert "REPLAY MISMATCH" not in out.out

    @pytest.mark.parametrize("variant", ["k", "ktilde"])
    def test_baseline_scans_the_variant_geometry(self, tmp_path, capsys, variant):
        # the baseline is copies of the variant's own first family: for k the
        # integer direction on the unit torus with the ball 1/A^2, not the
        # rational direction with no torus and no ball
        ds = tmp_path / "ds.json"
        rep = tmp_path / "rep.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        assert run("incidence", "--ds", str(ds), "--s", "1", "--variant", variant,
                   "--baseline", "parallel", "--out", str(rep)) == 0
        doc = json.loads(rep.read_text())
        assert (doc["variant"], doc["max_overlap"], doc["baseline"]) == (variant, 4, "parallel")
        sets = cli._load_ds(str(ds))
        first = incidence.families_from_direction_set(sets, s=1, variant=variant)[0]
        assert cli._incidence_families(sets, 1, None, None, variant, "parallel") == [first] * 4
        capsys.readouterr()
        assert run("replay", "--ds", str(ds), "--report", str(rep)) == 0
        assert "replay ok: witness attains 4" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", [
        ("--s", "3"), ("--c1", "60"), ("--variant", "k"), ("--baseline", "parallel"),
        ("--window-half", "9"), ("--budget", "1"), ("--r-sweeps", "5"), ("--seed", "3"),
        ("--out", "x.json"),  # a replay writes nothing
    ])
    def test_scan_flag_rejected_with_replay(self, tmp_path, capsys, flag, value):
        ds = tmp_path / "ds.json"
        rep = tmp_path / "rep.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        assert run("incidence", "--ds", str(ds), "--s", "2", "--out", str(rep)) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run("replay", "--ds", str(ds), "--report", str(rep), flag, value)
        assert exc.value.code == 3
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / value).exists()

    def test_replay_flag_of_incidence_refused_before_load(self, tmp_path, capsys):
        # the set and the report do not exist: the old form fails at parse time
        with pytest.raises(SystemExit) as exc:
            run("incidence", "--ds", str(tmp_path / "missing.json"),
                "--replay", str(tmp_path / "rep.json"))
        assert exc.value.code == 3
        assert "unrecognized arguments: --replay" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_replay_mismatch_exits_two(self, tmp_path, capsys):
        ds = tmp_path / "ds.json"
        rep = tmp_path / "rep.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        assert run("incidence", "--ds", str(ds), "--s", "2", "--out", str(rep)) == 0
        doc = json.loads(rep.read_text())
        doc["max_overlap"] += 1
        rep.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("replay", "--ds", str(ds), "--report", str(rep)) == 2
        assert "REPLAY MISMATCH" in capsys.readouterr().out

    def test_witness_outside_window_refused(self, tmp_path, capsys):
        # moved by the torus side, the witness still lies in as many tubes,
        # but far outside [-1, 1]^2, where no scan writes one
        ds = tmp_path / "ds.json"
        rep = tmp_path / "rep.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        assert run("incidence", "--ds", str(ds), "--s", "2", "--out", str(rep)) == 0
        doc = json.loads(rep.read_text())
        x = Fraction(doc["witness"][0]) + load_direction_set(ds).A_tilde
        doc["witness"][0] = f"{x.numerator}/{x.denominator}"
        rep.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("replay", "--ds", str(ds), "--report", str(rep)) == 2
        assert capsys.readouterr().err == (
            f"validation error: {rep}: field 'witness' lies outside the window\n")

    @pytest.mark.parametrize("key,value,named", [
        ("baseline", None, "'baseline'"),  # None: delete the key
        ("witness", ["1/0", "0/1"], "witness[0]"),
        ("witness", 5, "'witness'"),
        ("window", ["0"], "'window'"),
        # enumerated fields take only the values a scan writes
        ("method", "anything", "'method'"),
        ("variant", "K", "'variant'"),
        ("baseline", "Parallel", "'baseline'"),
        # only integers and num/den: a decimal or exponent form is refused
        ("witness", ["1.5", "0/1"], "witness[0]"),
        ("window", ["1e5000000", "1", "-1", "1"], "window[0]"),
        # one denominator per family, as the scan writes them
        ("r_values", [4], "'r_values'"),
    ])
    def test_malformed_report_is_validation_failure(self, tmp_path, capsys, key, value, named):
        ds = tmp_path / "ds.json"
        rep = tmp_path / "rep.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        assert run("incidence", "--ds", str(ds), "--s", "2", "--out", str(rep)) == 0
        doc = json.loads(rep.read_text())
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        rep.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("replay", "--ds", str(ds), "--report", str(rep)) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and named in err

    def test_huge_level_report_refused_fast(self, tmp_path, capsys):
        # 2^s is never built: a 10^9-bit level is refused by the denominators'
        # bit lengths, in well under a second
        ds = tmp_path / "ds.json"
        rep = tmp_path / "rep.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        assert run("incidence", "--ds", str(ds), "--s", "2", "--out", str(rep)) == 0
        doc = json.loads(rep.read_text())
        doc["s"] = 10**9
        rep.write_text(json.dumps(doc))
        capsys.readouterr()
        t0 = time.perf_counter()
        assert run("replay", "--ds", str(ds), "--report", str(rep)) == 2
        assert time.perf_counter() - t0 < 0.5
        assert capsys.readouterr().err == (
            "invalid argument: need 2^s <= r < 2^(s+1); got r=4, s=1000000000\n")

    def test_baseline_reaches_family_size(self, tmp_path, capsys):
        ds = tmp_path / "ds.json"
        rep = tmp_path / "rep.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        capsys.readouterr()
        assert run("incidence", "--ds", str(ds), "--s", "2", "--baseline", "parallel",
                   "--out", str(rep)) == 0
        assert "max_overlap=4" in capsys.readouterr().out

    def test_constructed_below_baseline(self, tmp_path):
        ds = tmp_path / "ds.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        rep_c, rep_b = tmp_path / "c.json", tmp_path / "b.json"
        run("incidence", "--ds", str(ds), "--s", "2", "--out", str(rep_c))
        run("incidence", "--ds", str(ds), "--s", "2", "--baseline", "parallel",
            "--out", str(rep_b))
        c = json.loads(rep_c.read_text())["max_overlap"]
        b = json.loads(rep_b.read_text())["max_overlap"]
        assert c < b == 4

    def test_baseline_uses_family_c1(self, tmp_path):
        # the baseline scans at the C1 stored in the set's spec, as the family scan does
        ds = tmp_path / "ds.json"
        spec = DirectionSpec(N=4, eps=1.0, seed=7, C1=60)
        save_direction_set(construct_directions(spec), ds)
        rep_c, rep_b = tmp_path / "c.json", tmp_path / "b.json"
        assert run("incidence", "--ds", str(ds), "--s", "2", "--out", str(rep_c)) == 0
        assert run("incidence", "--ds", str(ds), "--s", "2", "--baseline", "parallel",
                   "--out", str(rep_b)) == 0
        c1 = [json.loads(p.read_text())["C1"] for p in (rep_c, rep_b)]
        assert c1 == [60, 60]

    def test_window_half_only_for_ktilde(self, tmp_path):
        ds = tmp_path / "ds.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        assert run("incidence", "--ds", str(ds), "--s", "2", "--variant", "k",
                   "--window-half", "5", "--out", str(tmp_path / "k.json")) == 3
        assert not (tmp_path / "k.json").exists()
        rep = tmp_path / "t.json"
        assert run("incidence", "--ds", str(ds), "--s", "2", "--variant", "ktilde",
                   "--window-half", "2", "--out", str(rep)) == 0
        # the one rational writer spells integral edges n/1
        assert json.loads(rep.read_text())["window"] == ["-2/1", "2/1", "-2/1", "2/1"]

    def test_r_sweeps(self, tmp_path):
        ds = tmp_path / "ds.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        assert run("incidence", "--ds", str(ds), "--s", "2", "--r-sweeps", "3",
                   "--seed", "5", "--out", str(tmp_path / "r.json")) == 0

    @pytest.mark.parametrize("sweeps", ["0", "-2"])
    def test_nonpositive_r_sweeps_usage_error(self, tmp_path, sweeps):
        ds = tmp_path / "ds.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        assert run("incidence", "--ds", str(ds), "--s", "2", "--r-sweeps", sweeps,
                   "--out", str(tmp_path / "r.json")) == 3
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("flags", [
        ["--window-half", "0"], ["--window-half", "-1"], ["--s", "0"], ["--c1", "0"],
    ])
    def test_bad_scan_flag_usage_error_before_load(self, tmp_path, capsys, flags):
        # the set does not exist, so exit 3 shows the check runs before loading it
        assert run("incidence", "--ds", str(tmp_path / "missing.json"), "--s", "2", *flags,
                   "--out", str(tmp_path / "r.json")) == 3
        assert flags[0] in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_budget_is_unknown_flag(self, tmp_path, capsys):
        # the exact/sample threshold is fixed; no flag restates it
        with pytest.raises(SystemExit) as exc:
            run("incidence", "--ds", str(tmp_path / "missing.json"), "--s", "2",
                "--budget", "5", "--out", str(tmp_path / "r.json"))
        assert exc.value.code == 3
        assert "unrecognized arguments: --budget 5" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_tampered_ds_is_validation_error(self, tmp_path):
        ds = tmp_path / "ds.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        blob = ds.read_text().replace('"kappa":1', '"kappa":2')
        assert blob != ds.read_text()
        bad = tmp_path / "bad.json"
        bad.write_text(blob)
        assert run("incidence", "--ds", str(bad), "--s", "2",
                   "--out", str(tmp_path / "x.json")) == 2

    def test_partly_rescaled_ds_is_validation_error(self, tmp_path):
        # A kept, A_tilde and integer_vectors nulled, hash recomputed
        ds = tmp_path / "ds.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        doc = json.loads(ds.read_text())
        doc.pop("content_hash")
        doc["A_tilde"] = doc["integer_vectors"] = None
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        doc = {"content_hash": hashlib.sha256(canon.encode()).hexdigest(), **doc}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc, sort_keys=True, indent=1))
        assert run("incidence", "--ds", str(bad), "--s", "2",
                   "--out", str(tmp_path / "x.json")) == 2
        assert not (tmp_path / "x.json").exists()


class TestBadFiles:
    """A direction-set or report file that is not a JSON object, or not
    UTF-8, is a validation error (exit 2) for every command that reads it."""

    BLOBS = {"array": b"[1,2]", "null": b"null", "latin-1": '{"schema": "\u00e9"}'.encode("latin-1"),
             # over Python's 4300-digit conversion limit (3.11 and later)
             "long-int": b'{"schema": ' + b"1" * 5000 + b"}"}

    @pytest.mark.parametrize("blob", BLOBS.values(), ids=BLOBS)
    @pytest.mark.parametrize("command", ["incidence", "replay", "apply"])
    def test_bad_direction_set(self, tmp_path, capsys, command, blob):
        bad, rep = tmp_path / "bad.json", tmp_path / "r.json"
        bad.write_bytes(blob)
        f1 = incidence.TubeFamily(v=(1, 0), r=2, s=1, C1=8, torus_side=1)
        f2 = incidence.TubeFamily(v=(0, 1), r=3, s=1, C1=8, torus_side=1)
        incidence.save_overlap_report(
            incidence.max_overlap_scan([f1, f2], incidence.default_window("k")), rep)
        flags = {"incidence": ("--s", "2", "--out", str(tmp_path / "x.json")),
                 "replay": ("--report", str(rep)),
                 "apply": ("--l", "32", "--k-min", "5", "--k-max", "6", "--delta")}[command]
        assert run(command, "--ds", str(bad), *flags) == 2
        assert capsys.readouterr().err.startswith("validation error:")
        assert not (tmp_path / "x.json").exists()

    def test_rehashed_non_integer_field(self, tmp_path, capsys):
        # a re-hashed set whose A is not a decimal integer string
        ds = tmp_path / "ds.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        doc = json.loads(ds.read_text())
        doc.pop("content_hash")
        doc["A"] = "x"
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        ds.write_text(json.dumps({"content_hash": hashlib.sha256(canon.encode()).hexdigest(),
                                  **doc}))
        capsys.readouterr()
        assert run("incidence", "--ds", str(ds), "--s", "2",
                   "--out", str(tmp_path / "x.json")) == 2
        assert capsys.readouterr().err == "validation error: bad integer 'x' at A\n"
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("entry", [["1"], ["1", "2", "3"], "12"],
                             ids=["one", "three", "string"])
    def test_rehashed_integer_vector_not_a_pair(self, tmp_path, capsys, entry):
        ds = tmp_path / "ds.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        doc = json.loads(ds.read_text())
        doc.pop("content_hash")
        doc["integer_vectors"][0] = entry
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        ds.write_text(json.dumps({"content_hash": hashlib.sha256(canon.encode()).hexdigest(),
                                  **doc}))
        capsys.readouterr()
        assert run("incidence", "--ds", str(ds), "--s", "2",
                   "--out", str(tmp_path / "x.json")) == 2
        assert capsys.readouterr().err == (
            f"validation error: bad integer pair {entry!r} at integer_vectors[0]: "
            "not a two-element list\n")
        assert not (tmp_path / "x.json").exists()

    # a field of the wrong JSON type is a validation error that names it
    MISTYPED = {
        "spec-N-float": (lambda d: d["spec"].update(N=4.0), "'spec.N'"),
        "prime-subset-float": (lambda d: d["vectors"][0]["prime_subset"].__setitem__(0, 0.0),
                               "'vectors[0].prime_subset[0]'"),
        "A-number": (lambda d: d.update(A=int(d["A"])), " at A"),
        "m-float": (lambda d: d["vectors"][0].update(m=float(d["vectors"][0]["m"])),
                    "'vectors[0].m'"),
    }

    @pytest.mark.parametrize("mutate,named", MISTYPED.values(), ids=MISTYPED)
    def test_rehashed_mistyped_field(self, tmp_path, capsys, mutate, named):
        ds = tmp_path / "ds.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        doc = json.loads(ds.read_text())
        doc.pop("content_hash")
        mutate(doc)
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        ds.write_text(json.dumps({"content_hash": hashlib.sha256(canon.encode()).hexdigest(),
                                  **doc}))
        capsys.readouterr()
        assert run("incidence", "--ds", str(ds), "--s", "2",
                   "--out", str(tmp_path / "x.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and named in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("blob", BLOBS.values(), ids=BLOBS)
    def test_bad_report(self, tmp_path, capsys, blob):
        ds, bad = tmp_path / "ds.json", tmp_path / "bad.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        bad.write_bytes(blob)
        capsys.readouterr()
        assert run("replay", "--ds", str(ds), "--report", str(bad)) == 2
        assert capsys.readouterr().err.startswith("validation error:")


class TestApply:
    def test_delta_identity_line(self, tmp_path, capsys):
        rc = run("apply", "--vectors", "1,0;0,1;1,1;2,1", "--l", "512",
                 "--k-min", "5", "--k-max", "6", "--delta")
        assert rc == 0
        out = capsys.readouterr().out
        assert "delta-spread" in out and "disjoint_precondition=True" in out
        line = next(l for l in out.splitlines() if l.startswith("delta-spread"))
        rel = float(line.split("rel=")[1].split()[0])
        assert rel <= 1e-10
        assert float(line.split("closed_form=")[1].split()[0]) > 0

    def test_grid_file_output(self, tmp_path):
        out = tmp_path / "m.pdgf"
        csv_out = tmp_path / "m.csv"
        rc = run("apply", "--vectors", "1,0;0,1", "--l", "32", "--k-min", "5",
                 "--k-max", "6", "--delta", "--out", str(out), "--csv", str(csv_out))
        assert rc == 0
        g = maximal.load_grid_function(out)
        assert g.L == 32
        assert np.abs(g.values.imag).max() == 0.0
        assert len(csv_out.read_text().strip().splitlines()) == 32

    def test_real_grid_stays_real(self, tmp_path):
        # a real output saved by --out is read back as float64 by --input, so
        # the second apply takes the half-spectrum route and saves float64 again
        first, second = tmp_path / "m.pdgf", tmp_path / "m2.pdgf"
        args = ("apply", "--vectors", "1,0;0,1", "--l", "32", "--k-min", "5", "--k-max", "6")
        assert run(*args, "--delta", "--out", str(first)) == 0
        assert maximal.load_grid_function(first).values.dtype == np.float64
        assert run(*args, "--input", str(first), "--out", str(second)) == 0
        assert maximal.load_grid_function(second).values.dtype == np.float64

    def test_profile_preset(self, tmp_path, capsys):
        rc = run("apply", "--profile", "desk-small", "--vectors", "1,0;0,1", "--delta")
        assert rc == 0
        assert "delta-spread" in capsys.readouterr().out

    def test_delta_rel_na_when_not_disjoint(self, tmp_path, capsys):
        # desk-small: L = 63, k = 10..12, so the prime translates wrap around
        rc = run("apply", "--profile", "desk-small", "--vectors", "1,0;0,1", "--delta")
        assert rc == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("delta-spread"))
        assert "rel=n/a" in line and "disjoint_precondition=False" in line
        assert "closed_form=n/a" in line

    def test_degenerate_directions_reported(self, tmp_path, capsys):
        ds = tmp_path / "ds.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        capsys.readouterr()
        rc = run("apply", "--ds", str(ds), "--l", "64", "--k-min", "5", "--k-max", "6",
                 "--delta")
        assert rc == 0
        assert "degenerate_directions=4/4" in capsys.readouterr().out

    def test_profile_grid_side_avoids_degeneracy(self, tmp_path, capsys):
        ds = tmp_path / "ds.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        capsys.readouterr()
        assert run("apply", "--profile", "desk-small", "--ds", str(ds), "--delta") == 0
        assert "degenerate_directions=0/4" in capsys.readouterr().out

    def test_odd_grid_avoids_degeneracy(self, tmp_path, capsys):
        ds = tmp_path / "ds.json"
        run("construct", "--n", "8", "--eps", "0.5", "--seed", "7", "--out", str(ds))
        capsys.readouterr()
        rc = run("apply", "--ds", str(ds), "--l", "63", "--k-min", "5", "--k-max", "6",
                 "--delta")
        assert rc == 0
        assert "degenerate_directions=0/8" in capsys.readouterr().out

    def test_missing_input_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("apply", "--vectors", "1,0", "--k-min", "5", "--k-max", "6")
        assert exc.value.code == 3
        assert "one of the arguments --delta --input is required" in capsys.readouterr().err

    def test_missing_directions_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("apply", "--delta", "--k-min", "5", "--k-max", "6")
        assert exc.value.code == 3
        assert "one of the arguments --ds --vectors is required" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--k-min", "-2"], ["--k-min", "-3", "--k-max", "-2"], ["--l", "1"], ["--k-min", "7"],
        ["--vectors", "1,0;0"], ["--k-min", "0"],
    ])
    def test_bad_flag_usage_error_before_sieve(self, tmp_path, sieved, flags):
        assert run("apply", "--vectors", "1,0;0,1", "--k-min", "5", "--k-max", "6", "--delta",
                   *flags) == 3
        assert sieved == []

    def test_ds_with_vectors_usage_error(self, tmp_path, capsys):
        ds = tmp_path / "ds.json"
        run("construct", "--n", "4", "--eps", "1.0", "--seed", "7", "--out", str(ds))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run("apply", "--ds", str(ds), "--vectors", "1,0", "--k-min", "5", "--k-max", "6",
                "--delta")
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert "--ds" in err and "--vectors" in err

    def test_delta_with_input_usage_error(self, tmp_path, capsys):
        src = tmp_path / "f.pdgf"
        maximal.save_grid_function(maximal.GridFunction.delta(32), src)
        with pytest.raises(SystemExit) as exc:
            run("apply", "--vectors", "1,0", "--l", "32", "--k-min", "5", "--k-max", "6",
                "--delta", "--input", str(src), "--out", str(tmp_path / "o.pdgf"))
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert "--delta" in err and "--input" in err
        assert not (tmp_path / "o.pdgf").exists()

    def test_input_roundtrip(self, tmp_path):
        f = maximal.GridFunction.random(32, np.random.default_rng(0))
        src = tmp_path / "f.pdgf"
        maximal.save_grid_function(f, src)
        out = tmp_path / "out.pdgf"
        rc = run("apply", "--vectors", "1,0;0,1", "--l", "32", "--k-min", "5",
                 "--k-max", "6", "--input", str(src), "--out", str(out))
        assert rc == 0
        assert maximal.load_grid_function(out).L == 32


    def test_out_writes_exactly_the_named_file(self, tmp_path):
        out = tmp_path / "g.bin"
        assert run("apply", "--vectors", "1,0;0,1", "--l", "32", "--k-min", "5",
                   "--k-max", "6", "--delta", "--out", str(out)) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["g.bin"]
        assert np.load(out).shape == (32, 32)

    @pytest.mark.parametrize("blob", [
        b"", b"PDGF 1\nL 32\ndtype float64\nEND\n" + bytes(32 * 32 * 8),
        # a .npy header claiming a 10^6 x 10^6 float64 array, then one value
        b"\x93NUMPY\x01\x00v\x00" + b"{'descr': '<f8', 'fortran_order': False, "
        b"'shape': (1000000, 1000000), }".ljust(117) + b"\n" + bytes(8),
    ], ids=["empty", "pdgf", "huge-shape"])
    def test_malformed_input_is_validation_error(self, tmp_path, capsys, blob):
        src = tmp_path / "f.bin"
        src.write_bytes(blob)
        assert run("apply", "--vectors", "1,0;0,1", "--l", "32", "--k-min", "5", "--k-max", "6",
                   "--input", str(src), "--out", str(tmp_path / "o.bin")) == 2
        assert capsys.readouterr().err.startswith(f"validation error: {src}: ")
        assert not (tmp_path / "o.bin").exists()


class TestNormSweep:
    def test_monotone_table(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = run("norm-sweep", "--n-list", "2,4,8", "--eps", "0.5", "--seed", "7",
                 "--l", "32", "--k-min", "5", "--k-max", "6", "--trials", "2",
                 "--out", str(out))
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("schema,")
        # per family: the constant row is the same for every N, so it would
        # make an overall maximum monotone on its own
        per_fam = {}
        for row in lines[2:]:
            n, fam, ratio, _ = row.split(",", 3)
            per_fam.setdefault(fam, []).append((int(n), float(ratio)))
        assert set(per_fam) == {"delta", "gaussian", "rademacher", "boxes", "constant"}
        for rows in per_fam.values():
            assert [n for n, _ in rows] == [2, 4, 8]
            ratios = [r for _, r in rows]
            assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_degenerate_directions_reported(self, tmp_path, capsys):
        rc = run("norm-sweep", "--n-list", "2,4,8", "--l", "32", "--trials", "1",
                 "--out", str(tmp_path / "sweep.csv"))
        assert rc == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("N=8:"))
        assert "degenerate_directions=8/8" in line

    def test_rows_show_each_family(self, tmp_path, capsys):
        # the README line: the constant family's ratio is the overall maximum
        # at every N, so only the per-family ratios show the growth with N
        out = tmp_path / "sweep.csv"
        assert run("norm-sweep", "--n-list", "4,8,16", "--l", "63", "--k-min", "10",
                   "--k-max", "12", "--out", str(out)) == 0
        rows = [l.split() for l in capsys.readouterr().out.splitlines() if l.startswith("N=")]
        assert [r[0] for r in rows] == ["N=4:", "N=8:", "N=16:"]
        csv_ratio = {}
        for line in out.read_text().strip().splitlines()[2:]:
            n, fam, ratio, _ = line.split(",", 3)
            csv_ratio[int(n), fam] = float(ratio)
        delta = []
        for n, row in zip((4, 8, 16), rows):
            printed = [t.split("=") for t in row[4:-1]]
            assert [fam for fam, _ in printed] == [
                "delta", "gaussian", "rademacher", "boxes", "constant"]
            for fam, ratio in printed:
                assert ratio == f"{csv_ratio[n, fam]:.6f}"
            assert row[3] == dict(printed)["constant"]
            delta.append(float(dict(printed)["delta"]))
        assert delta[0] < delta[1] < delta[2] < float(rows[0][3])

    @pytest.mark.parametrize("flags", [["--k-min", "-2"], ["--trials", "0"], ["--l", "1"]])
    def test_bad_flag_usage_error_before_sieve(self, tmp_path, sieved, flags):
        assert run("norm-sweep", "--n-list", "2", "--k-max", "12", *flags,
                   "--out", str(tmp_path / "sweep.csv")) == 3
        assert sieved == []
        assert not (tmp_path / "sweep.csv").exists()


# Each command with only its required flags: the values it runs with, without a
# profile and under each preset, and the sieve limit 2^(largest scale + 1)
# (None: the command sieves nothing). The values are those the commands ran
# with when each resolved its own flags.
_REQUIRED = {  # without a profile
    "construct": ["--n", "4", "--eps", "1.0"],
    "incidence": ["--s", "2"],
    "apply": ["--k-min", "5", "--k-max", "6"],
}
_TAIL = {
    "construct": ["--out", "ds.json"],
    "mult-error": ["--out", "e.csv"],
    "incidence": ["--ds", "ds.json"],
    "replay": ["--ds", "ds.json", "--report", "overlap.json"],
    "apply": ["--vectors", "1,0;0,1", "--delta"],
    "norm-sweep": ["--out", "sweep.csv"],
    "selftest": [],
}
_RESOLVED = {
    ("construct", None): ({"n": 4, "eps": 1.0, "seed": 0}, None),
    ("construct", "desk-small"): ({"n": 4, "eps": 1.0, "seed": 7}, None),
    ("construct", "desk-full"): ({"n": 8, "eps": 0.5, "seed": 7}, None),
    ("mult-error", None): ({"k_list": "14,16,18,20", "grid": 1024, "d": 17.0}, 2**21),
    ("mult-error", "desk-small"): ({"k_list": "10,11,12", "grid": 256, "d": 17.0}, 2**13),
    ("mult-error", "desk-full"): ({"k_list": "14,16,18,20", "grid": 1024, "d": 17.0}, 2**21),
    ("apply", None): ({"l": 63, "k_min": 5, "k_max": 6}, 2**7),
    ("apply", "desk-small"): ({"l": 63, "k_min": 10, "k_max": 12}, 2**13),
    ("apply", "desk-full"): ({"l": 127, "k_min": 14, "k_max": 16}, 2**17),
    ("norm-sweep", None): (
        {"eps": 0.5, "seed": 7, "l": 63, "k_min": 10, "k_max": 12, "trials": 8}, 2**13),
    ("norm-sweep", "desk-small"): (
        {"eps": 1.0, "seed": 7, "l": 63, "k_min": 10, "k_max": 12, "trials": 8}, 2**13),
    ("norm-sweep", "desk-full"): (
        {"eps": 0.5, "seed": 7, "l": 127, "k_min": 14, "k_max": 16, "trials": 8}, 2**17),
    ("replay", None): ({"ds": "ds.json", "report": "overlap.json"}, None),
    ("selftest", None): ({}, None),
}
_SCAN = {"variant": "ktilde", "window_half": None, "r_sweeps": 1, "seed": 0,
         "out": "overlap.json"}
for _profile, _s in ((None, 2), ("desk-small", 1), ("desk-full", 2)):
    # the presets' seed is the construction's; incidence's seeds its r sweeps
    _RESOLVED[("incidence", _profile)] = ({"s": _s, **_SCAN}, None)


# Usage errors (exit 3) with their message and the output file each line names:
# every one is reported before that file is written
_USAGE_ERRORS = {
    "construct-missing": (["construct", "--out", "x.json"],
                          "missing --n --eps (give the flag or use --profile)", "x.json"),
    "construct-n-1": (["construct", "--n", "1", "--eps", "0.5", "--out", "x.json"],
                      "--n must be >= 2", "x.json"),
    "construct-eps-0": (["construct", "--n", "4", "--eps", "0", "--out", "x.json"],
                        "--eps must lie in (0, 1]", "x.json"),
    "construct-eps-1.5": (["construct", "--n", "4", "--eps", "1.5", "--out", "x.json"],
                          "--eps must lie in (0, 1]", "x.json"),
    # the floors of the construction's integers, checked before a set is built
    "construct-a-0": (["construct", "--n", "4", "--eps", "0.5", "--a", "0", "--out", "x.json"],
                      "--a must be >= 1", "x.json"),
    "construct-m-exp-0": (["construct", "--n", "4", "--eps", "0.5", "--m-exp", "0",
                           "--out", "x.json"], "--m-exp must be >= 1", "x.json"),
    "construct-window-count-0": (["construct", "--n", "4", "--eps", "0.5", "--window-count",
                                  "0", "--out", "x.json"], "--window-count must be >= 1",
                                 "x.json"),
    "mult-error-k-list-word": (["mult-error", "--k-list", "14,x", "--out", "e.csv"],
                               "cannot parse k list '14,x'", "e.csv"),
    "mult-error-k-list-empty": (["mult-error", "--k-list", ",", "--out", "e.csv"],
                                "--k-list is empty", "e.csv"),
    "mult-error-grid-0": (["mult-error", "--grid", "0", "--out", "e.csv"],
                          "--grid must be >= 1", "e.csv"),
    "incidence-k-window-half-0": (
        ["incidence", "--ds", "missing.json", "--s", "2", "--variant", "k",
         "--window-half", "0", "--out", "r.json"], "--window-half must be >= 1", "r.json"),
    "incidence-c1-0": (["incidence", "--ds", "missing.json", "--s", "2", "--c1", "0",
                        "--out", "r.json"], "--c1 must be >= 1", "r.json"),
    "apply-vector-word": (
        ["apply", "--vectors", "1,a", "--k-min", "5", "--k-max", "6", "--delta",
         "--out", "m.npy"], "vector '1,a' is not a pair of integers", "m.npy"),
    "apply-input-side": (
        ["apply", "--vectors", "1,0", "--input", "g63.npy", "--l", "64", "--k-min", "5",
         "--k-max", "6", "--out", "m.npy"], "input grid side 63 != --l 64", "m.npy"),
    "norm-sweep-n-list-0": (["norm-sweep", "--n-list", "0", "--out", "sweep.csv"],
                            "--n-list must hold positive sizes", "sweep.csv"),
    # scale 0 holds the one prime 2 at weight 0: its average is identically 0
    "apply-k-min-0": (["apply", "--vectors", "1,0", "--k-min", "0", "--k-max", "6", "--delta",
                       "--out", "m.npy"], "--k-min must be >= 1", "m.npy"),
    "norm-sweep-k-min-0": (["norm-sweep", "--k-min", "0", "--out", "sweep.csv"],
                           "--k-min must be >= 1", "sweep.csv"),
}


@pytest.mark.parametrize("case", sorted(_USAGE_ERRORS))
def test_usage_error_writes_nothing(tmp_path, monkeypatch, capsys, case):
    argv, message, out = _USAGE_ERRORS[case]
    monkeypatch.chdir(tmp_path)
    maximal.save_grid_function(maximal.GridFunction.delta(63), "g63.npy")
    assert run(*argv) == 3
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (tmp_path / out).exists()


class TestResolution:
    @pytest.mark.parametrize("command,profile", sorted(_RESOLVED, key=str))
    def test_resolved_values_and_table_limit(self, tmp_path, monkeypatch, command, profile):
        expected, limit = _RESOLVED[(command, profile)]
        given = ["--profile", profile] if profile else _REQUIRED.get(command, [])
        argv = [command, *given, *_TAIL[command]]
        monkeypatch.chdir(tmp_path)
        fn = "cmd_" + command.replace("-", "_")
        seen = {}
        real = getattr(cli, fn)
        monkeypatch.setattr(cli, fn, lambda args: seen.update(vars(args)) or 0)
        assert cli.main(argv) == 0
        assert {k: seen[k] for k in expected} == expected
        if limit is None:
            return

        def sieve(n):
            seen["limit"] = n
            raise RuntimeError("stop at the sieve")

        monkeypatch.setattr(cli, fn, real)
        monkeypatch.setattr(cli, "sieve_primes", sieve)
        assert cli.main(argv) == 1
        assert seen["limit"] == limit


class TestFlagScope:
    # --profile is taken by every command but selftest and replay, --cache-dir,
    # construct --c1 and apply --method by none
    @pytest.mark.parametrize("argv", [
        ["selftest", "--profile", "desk-full"],
        ["selftest", "--cache-dir", "D"],
        ["construct", "--n", "4", "--eps", "1.0", "--out", "ds.json", "--cache-dir", "D"],
        ["incidence", "--ds", "ds.json", "--s", "2", "--cache-dir", "D"],
        ["mult-error", "--k-list", "10", "--grid", "32", "--out", "e.csv", "--cache-dir", "D"],
        ["apply", "--vectors", "1,0;0,1", "--k-min", "5", "--k-max", "6", "--delta",
         "--cache-dir", "D"],
        ["norm-sweep", "--out", "sweep.csv", "--cache-dir", "D"],
        ["replay", "--ds", "ds.json", "--report", "overlap.json", "--profile", "desk-full"],
        ["construct", "--n", "4", "--eps", "1.0", "--out", "ds.json", "--c1", "60"],
        ["apply", "--vectors", "1,0;0,1", "--k-min", "5", "--k-max", "6", "--delta",
         "--method", "spatial"],
    ], ids=["selftest-profile", "selftest-cache-dir", "construct-cache-dir",
            "incidence-cache-dir", "mult-error-cache-dir", "apply-cache-dir",
            "norm-sweep-cache-dir", "replay-profile", "construct-c1", "apply-method"])
    def test_flag_refused(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 3
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


    # a prefix of a flag is refused; with argparse's prefix matching on, each
    # of these lines ran as --n-list, --vectors --delta and --ds --report
    @pytest.mark.parametrize("argv", [
        ["norm-sweep", "--n", "8", "--out", "sweep.csv"],
        ["apply", "--vec", "1,0", "--del"],
        ["replay", "--d", "ds.json", "--rep", "r.json"],
    ], ids=["norm-sweep-n", "apply-vec-del", "replay-d-rep"])
    def test_flag_prefix_refused(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 3
        assert "error: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestNoStrayFiles:
    # the commands that sieve write the files their flags name and nothing else,
    # whatever HOME is: an empty directory stays empty, and a regular file is
    # neither read nor an error
    @pytest.mark.parametrize("home_kind", ["empty-dir", "regular-file"])
    def test_only_named_outputs(self, tmp_path, monkeypatch, home_kind):
        home, work = tmp_path / "home", tmp_path / "work"
        work.mkdir()
        if home_kind == "empty-dir":
            home.mkdir()
        else:
            home.write_text("not a directory")
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.delenv("PD_CACHE_DIR", raising=False)
        monkeypatch.chdir(work)
        assert run("mult-error", "--k-list", "10", "--grid", "32", "--out", "e.csv") == 0
        assert run("apply", "--vectors", "1,0;0,1;1,1;2,1", "--l", "512",
                   "--k-min", "5", "--k-max", "6", "--delta") == 0
        assert run("norm-sweep", "--n-list", "2", "--l", "32", "--k-min", "5", "--k-max", "6",
                   "--trials", "1", "--out", "sweep.csv") == 0
        made = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
        assert made == ["home", "work", "work/e.csv", "work/sweep.csv"]
        if home_kind == "regular-file":
            assert home.read_text() == "not a directory"


class TestSelftest:
    def test_clean_build_exits_zero(self, tmp_path, capsys):
        assert run("selftest") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_raising_check_fails(self, monkeypatch, capsys):
        # a check that raises is reported and the remaining checks still run
        def broken():
            raise RuntimeError("broken oracle")

        monkeypatch.setattr(selftest, "_check_bumps", broken)
        assert selftest.run_all(verbose=True) is False
        lines = capsys.readouterr().out.splitlines()
        assert [l for l in lines if l.startswith("[FAIL]")] == [
            "[FAIL] bump and cutoff exact values: FAIL (broken oracle)"]
        assert len(lines) == 10

    def test_checks_survive_optimize(self):
        # a wrong folded grid must fail the selftest even with asserts stripped
        code = (
            "import numpy as np\n"
            "from primedir import multiplier, selftest\n"
            "if __debug__:\n"
            "    raise SystemExit(2)\n"
            "multiplier.m_k_grid = lambda k, L, table: np.zeros(L, dtype=complex)\n"
            "raise SystemExit(0 if selftest.run_all(verbose=False) is False else 1)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300)
        assert proc.returncode == 0, proc.stderr

    def test_real_route_checked(self):
        # a real inverse that lets the half spectrum fix the output length
        # (2 (L//2) columns, wrong for odd L) must fail the operator check
        code = (
            "import inspect, textwrap\n"
            "from primedir import maximal, selftest\n"
            "if __debug__:\n"
            "    raise SystemExit(2)\n"
            "src = textwrap.dedent(inspect.getsource(maximal._apply_symbol))\n"
            "mutant = src.replace('np.fft.irfft(prod[:, s], n=L, axis=2', 'np.fft.irfft(prod[:, s], axis=2')\n"
            "if mutant == src:\n"
            "    raise SystemExit(3)\n"
            "exec(mutant, vars(maximal))\n"
            "raise SystemExit(0 if selftest.run_all(verbose=True) is False else 1)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path), timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        failed = [l for l in proc.stdout.splitlines() if l.startswith("[FAIL]")]
        assert len(failed) == 1 and "operator identities" in failed[0], proc.stdout
