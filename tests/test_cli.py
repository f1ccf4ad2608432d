import csv
import dataclasses
import io
import json
import math
import sys

import pytest

from monotri import classify as cls, cli, indexcheck
from monotri.classify import TrinomialFamily, swan_disc_f
from monotri.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_USAGE,
    ROW_FIELDS,
    UsageError,
    load_config,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _str_digit_limit():
    """The int-to-str digit limit, or None where Python has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


class TestClassifyCommand:
    def test_monogenic_family_jsonl(self, capsys):
        code, out, _ = run(
            capsys, "classify", "-p", "5", "-a", "3", "-b", "1",
            "--format", "jsonl",
        )
        assert code == EXIT_OK
        row = json.loads(out)
        assert list(row) == ROW_FIELDS
        assert row["p"] == 5 and row["a"] == 3 and row["b"] == 1
        assert row["delta"] == 5
        assert row["irreducible"] is True
        assert row["monogenic"] is True
        assert row["galois"] == "C5:C4" and row["galois_order"] == 20
        assert row["field_discriminant"] == row["disc_f"]
        assert isinstance(row["reason"], list) and row["reason"]

    def test_reducible_family(self, capsys):
        code, out, _ = run(
            capsys, "classify", "-p", "3", "-a", "2", "-b", "1",
            "--format", "jsonl",
        )
        assert code == EXIT_OK
        row = json.loads(out)
        assert row["irreducible"] is False
        assert row["monogenic"] is None and row["galois"] is None

    def test_invalid_p_is_usage_error(self, capsys):
        code, _, err = run(capsys, "classify", "-p", "4", "-a", "1", "-b", "1")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_missing_argument_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "classify", "-p", "5", "-a", "3")
        assert code == EXIT_USAGE

    def test_unknown_on_budget_exhaustion(self, capsys):
        code, out, _ = run(
            capsys, "classify", "-p", "3", "-a", "123456789", "-b", "-1",
            "--budget", "2", "--format", "jsonl",
        )
        assert code == EXIT_UNKNOWN
        row = json.loads(out)
        assert row["monogenic"] is None and row["irreducible"] is True

    def test_seed_is_a_crosscheck_option_only(self, capsys):
        code, _, _ = run(
            capsys, "classify", "-p", "5", "-a", "3", "-b", "1", "--seed", "1"
        )
        assert code == EXIT_USAGE

    def test_internal_error_has_its_own_exit_code(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli.cls, "classify", broken)
        limit = _str_digit_limit()
        code, out, err = run(capsys, "classify", "-p", "5", "-a", "3", "-b", "1")
        assert code == EXIT_INTERNAL
        assert out == ""
        assert err == "internal error: RuntimeError: boom\n"
        # the lifted int-to-str limit is restored on the error path too
        assert _str_digit_limit() == limit

    def test_csv_header(self, capsys):
        code, out, _ = run(
            capsys, "classify", "-p", "3", "-a", "1", "-b", "1",
            "--format", "csv",
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ROW_FIELDS
        assert len(rows) == 2

    def test_deterministic_output(self, capsys):
        a = run(capsys, "classify", "-p", "5", "-a", "3", "-b", "1",
                "--format", "jsonl")
        b = run(capsys, "classify", "-p", "5", "-a", "3", "-b", "1",
                "--format", "jsonl")
        assert a == b


class TestLargeRows:
    """A p in the thousands gives a disc_f far past the 4300-digit
    int-to-str limit; every format still prints it exactly."""

    LARGE = [(1009, 3, 1), (2003, 3, 1), (4001, 5, -1)]

    @pytest.mark.parametrize("fmt", ["human", "jsonl", "csv"])
    @pytest.mark.parametrize("fam", LARGE)
    def test_every_format_exits_zero(self, capsys, fam, fmt):
        limit = _str_digit_limit()
        p, a, b = fam
        code, out, err = run(
            capsys, "classify", "-p", str(p), "-a", str(a), "-b", str(b),
            "--format", fmt,
        )
        assert code == EXIT_OK, err
        assert err == ""
        # a header line and one row, or one JSON line
        assert out.count("\n") == (1 if fmt == "jsonl" else 2)
        assert _str_digit_limit() == limit

    def test_jsonl_disc_f_is_exact(self, capsys):
        limit = _str_digit_limit()
        code, out, _ = run(
            capsys, "classify", "-p", "1009", "-a", "3", "-b", "1",
            "--format", "jsonl",
        )
        assert code == EXIT_OK
        assert _str_digit_limit() == limit
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            row = json.loads(out)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        assert row["disc_f"] == swan_disc_f(TrinomialFamily(1009, 3, 1))
        assert row["field_discriminant"] == row["disc_f"]

    # a = -(s^3 - 3s) with s = 10^1500, written out: 4,501 characters, past
    # the 4300-digit limit on parsing an int.  D_3(s, 1) = s^3 - 3s = -a,
    # so the root of g is a cube and f is reducible.
    HUGE_A = "-" + "9" * 2999 + "7" + "0" * 1500

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "-p", "3", "-a", HUGE_A, "-b", "1"],
            ["enumerate", "-p", "3", "--a-min", HUGE_A, "--a-max", HUGE_A,
             "-b", "1"],
        ],
        ids=["classify", "enumerate"],
    )
    def test_huge_a_argument_is_parsed(self, capsys, argv):
        limit = _str_digit_limit()
        code, out, err = run(capsys, *argv, "--format", "jsonl")
        assert code == EXIT_OK, err
        assert _str_digit_limit() == limit
        assert out.startswith(f'{{"p": 3, "a": {self.HUGE_A}, "b": 1, ')
        assert '"irreducible": false' in out
        assert "root of g is a p-th power: f reducible" in out


class TestEnumerateCommand:
    def test_monogenic_grid_p3(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "-p", "3", "--a-min", "-5", "--a-max", "5",
            "-b", "1", "--monogenic-only", "--p-divides-delta",
            "--format", "jsonl",
        )
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        gamma = [r["a"] for r in rows
                 if r["case"] in ("Gamma1_b1", "Gamma2_b1")]
        assert sorted(gamma) == [-4, -1, 1, 4]

    def test_monogenic_grid_p5(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "-p", "5", "--a-min", "-6", "--a-max", "6",
            "-b", "1", "--monogenic-only", "--p-divides-delta",
            "--format", "jsonl",
        )
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        gamma = [r["a"] for r in rows if r["case"] == "Gamma1_b1"]
        assert sorted(gamma) == [-3, 3]

    def test_case_filter(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "-p", "3", "--a-min", "1", "--a-max", "10",
            "-b", "1", "--case", "Omega_b1", "--format", "jsonl",
        )
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows and all(r["case"] == "Omega_b1" for r in rows)

    @pytest.mark.parametrize("only", [[], ["--monogenic-only"]])
    def test_filtered_unknown_still_exits_unknown(self, capsys, only):
        # the factoring budget runs out on the discriminant: the row is
        # Unknown, and hiding it must not turn the exit code into success
        code, out, _ = run(
            capsys, "enumerate", "-p", "3", "--a-min", "123456789",
            "--a-max", "123456789", "-b", "-1", "--budget", "2",
            "--format", "jsonl", *only,
        )
        assert code == EXIT_UNKNOWN
        assert len(out.splitlines()) == (0 if only else 1)

    def test_bad_prime_rejected(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "-p", "6", "--a-min", "1", "--a-max", "2",
            "-b", "1",
        )
        assert code == EXIT_USAGE and "not an odd prime" in err

    def test_empty_range_rejected(self, capsys):
        code, _, _ = run(
            capsys, "enumerate", "-p", "3", "--a-min", "5", "--a-max", "1",
            "-b", "1",
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("bs", [["0"], ["1", "0"]])
    def test_zero_b_rejected(self, capsys, bs):
        # as classify -b 0 is: a zero b is no family, not an empty grid
        code, out, err = run(
            capsys, "enumerate", "-p", "3", "--a-min", "1", "--a-max", "2",
            *(arg for b in bs for arg in ("-b", b)),
        )
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: b=0")

    def test_unknown_case_rejected(self, capsys):
        # a misspelt label would otherwise filter out every row, silently
        code, out, err = run(
            capsys, "enumerate", "-p", "3", "--a-min", "1", "--a-max", "5",
            "-b", "1", "--case", "Gamma1",
        )
        assert code == EXIT_USAGE and out == ""
        assert "invalid choice" in err and "Gamma1_b1" in err


class TestCorollaryScan:
    def test_z_up_to_20(self, capsys):
        code, out, _ = run(capsys, "corollary-scan", "20", "--format", "jsonl")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 20
        prime_z = [r["z"] for r in rows if r["p_is_prime"]]
        assert prime_z == [1, 3, 5, 7, 13, 15, 17]
        for r in rows:
            if r["p_is_prime"]:
                assert r["monogenic"] is True
                assert r["consistent"] is True
                assert r["unique_a"] is True
                assert r["galois"] == f"C{r['p']}:C{r['p'] - 1}"

    def test_z_is_the_only_a_with_p_dividing_a2_plus_4(self):
        # The lemma behind unique_a, checked by brute force without
        # classify: in [1, isqrt(z^2 + 4)], only a = z has
        # (z^2 + 4) | (a^2 + 4).
        for z in range(1, 10**4 + 1):
            p = z * z + 4
            window = range(1, math.isqrt(p) + 1)
            assert [a for a in window if (a * a + 4) % p == 0] == [z], z

    def test_contradiction_exits_3(self, capsys, monkeypatch):
        # the last prime row (z = 5, p = 29) turns Unknown and the others
        # contradict the corollary: each contradiction gets a line, and 3
        # outranks a later 2
        real = cls.classify

        def flipped(fam, **budget):
            c = real(fam, **budget)
            monogenic = None if fam.p == 29 else not c.monogenic
            return dataclasses.replace(c, monogenic=monogenic)

        monkeypatch.setattr(cls, "classify", flipped)
        code, out, err = run(capsys, "corollary-scan", "5", "--format", "jsonl")
        assert code == EXIT_INTERNAL
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["consistent"] for r in rows if r["p_is_prime"]] == [False] * 3
        assert err.splitlines() == ["inconsistent: z=1 p=5", "inconsistent: z=3 p=13"]

    def test_unknown_row_exits_2(self, capsys, monkeypatch):
        real = cls.classify
        monkeypatch.setattr(
            cls, "classify",
            lambda fam, **budget: dataclasses.replace(
                real(fam, **budget), monogenic=None
            ),
        )
        code, out, err = run(capsys, "corollary-scan", "5", "--format", "jsonl")
        assert code == EXIT_UNKNOWN
        rows = [json.loads(line) for line in out.splitlines()]
        assert all(r["monogenic"] is None for r in rows if r["p_is_prime"])
        assert "inconsistent" not in err

    @pytest.mark.parametrize("z_max", ["0", "-3"])
    def test_empty_z_range_rejected(self, capsys, z_max):
        code, out, err = run(capsys, "corollary-scan", z_max)
        assert code == EXIT_USAGE
        assert out == "" and "z_max must be at least 1" in err


class TestCrosscheck:
    def test_small_corpus_fully_agrees(self, capsys):
        code, out, err = run(
            capsys, "crosscheck", "--size", "60", "--format", "jsonl"
        )
        assert code == EXIT_OK
        row = json.loads(out)
        assert row["disagreements"] == 0
        assert row["agreements"] == row["total"] > 0
        assert "disagreement" not in err

    def test_seed_changes_corpus_but_not_agreement(self, capsys):
        _, out1, _ = run(capsys, "crosscheck", "--size", "30",
                         "--seed", "1", "--format", "jsonl")
        _, out2, _ = run(capsys, "crosscheck", "--size", "30",
                         "--seed", "2", "--format", "jsonl")
        r1, r2 = json.loads(out1), json.loads(out2)
        assert r1["disagreements"] == r2["disagreements"] == 0
        assert cli.crosscheck_corpus(30, 1) != cli.crosscheck_corpus(30, 2)

    @pytest.mark.parametrize("tiny_budget", [False, True])
    def test_disagreement_exits_3(self, capsys, monkeypatch, tmp_path, tiny_budget):
        # a disagreement outranks any skip
        oracle = indexcheck.dedekind_divides_index
        monkeypatch.setattr(
            indexcheck, "dedekind_divides_index", lambda f, q: not oracle(f, q)
        )
        argv = ["crosscheck", "--size", "10", "--format", "jsonl"]
        if tiny_budget:
            cfg = tmp_path / "tiny.cfg"
            cfg.write_text("trial_bound = 10\n")
            argv += ["--config", str(cfg), "--budget", "2"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INTERNAL
        row = json.loads(out)
        assert row["disagreements"] == row["total"] > 0
        assert (row["skipped"] > 0) == tiny_budget
        assert err.count("disagreement:") == row["disagreements"]

    def test_skipped_trinomial_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("trial_bound = 10\n")
        code, out, err = run(
            capsys, "crosscheck", "--size", "10", "--config", str(cfg),
            "--budget", "2", "--format", "jsonl",
        )
        assert code == EXIT_UNKNOWN
        row = json.loads(out)
        assert row["skipped"] > 0
        assert row["disagreements"] == 0 and "disagreement:" not in err

    def test_skipped_trinomial_checks_its_proven_primes(self):
        # disc = -2^40 * 631484577147159308555466467, and two rho
        # iterations cannot split the 90-bit cofactor
        t = indexcheck.GeneralTrinomial(12, 11, -19, -16)
        report = cli.run_crosscheck([t], {"rho_budget": 2})
        assert report["total"] == report["agreements"] == 1
        assert report["skipped"] == 1

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_empty_corpus_rejected(self, capsys, size):
        code, out, err = run(capsys, "crosscheck", "--size", size)
        assert code == EXIT_USAGE
        assert out == "" and "corpus size must be at least 1" in err


class TestGaloisSample:
    def test_consistent_verdict(self, capsys):
        code, out, _ = run(
            capsys, "galois-sample", "-p", "3", "-a", "1", "-b", "1",
            "--prime-budget", "400", "--format", "jsonl",
        )
        assert code == EXIT_OK
        row = json.loads(out)
        assert row["claimed"] == "(C3:C1)xC2"
        assert row["claimed_order"] == 6
        assert row["verdict"] == "consistent"

    def test_inconclusive_with_small_budget(self, capsys):
        code, out, _ = run(
            capsys, "galois-sample", "-p", "3", "-a", "1", "-b", "1",
            "--prime-budget", "50", "--format", "jsonl",
        )
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "inconclusive"

    def test_reducible_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "galois-sample", "-p", "3", "-a", "2", "-b", "1"
        )
        assert code == EXIT_USAGE and "reducible" in err

    def test_csv_is_a_header_and_one_row(self, capsys):
        code, out, _ = run(
            capsys, "galois-sample", "-p", "3", "-a", "1", "-b", "1",
            "--prime-budget", "400", "--format", "csv",
        )
        assert code == EXIT_OK
        header, row = csv.reader(io.StringIO(out))
        assert header == [
            "p", "a", "b", "claimed", "claimed_order", "primes_used",
            "observed_orders", "split_fraction", "verdict",
        ]
        fields = dict(zip(header, row))
        assert fields["primes_used"] == "400"
        assert fields["verdict"] == "consistent"

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_prime_budget_below_one_is_usage_error(self, capsys, budget):
        code, out, err = run(
            capsys, "galois-sample", "-p", "3", "-a", "1", "-b", "1",
            "--prime-budget", budget,
        )
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: prime budget must be at least 1")

    def test_budget_is_not_an_option(self, capsys):
        # galois-sample factors nothing, so a rho budget would go unread
        code, out, err = run(
            capsys, "galois-sample", "-p", "3", "-a", "1", "-b", "1",
            "--prime-budget", "100", "--budget", "7",
        )
        assert code == EXIT_USAGE and out == ""
        assert "unrecognized arguments: --budget 7" in err


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.prime_budget == 2000

    def test_file(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("# comment\nprime_budget = 137\nrho_budget=77\n")
        cfg = load_config(str(path))
        assert cfg.prime_budget == 137
        assert cfg.rho_budget == 77

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(UsageError, match="unknown config key: bogus"):
            load_config(str(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("prime_budget = abc\n")
        with pytest.raises(UsageError, match="prime_budget needs an integer"):
            load_config(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(UsageError, match="cannot read config file"):
            load_config(str(tmp_path / "absent.cfg"))

    @pytest.mark.parametrize(
        "text",
        ["prime_budget = abc\n", "bogus = 1\n", "split_rel_tol = 0.35\n", None],
    )
    def test_bad_config_exits_one_with_one_line(self, tmp_path, capsys, text):
        path = tmp_path / "cfg"
        if text is not None:
            path.write_text(text)
        code, out, err = run(
            capsys, "classify", "-p", "5", "-a", "3", "-b", "1",
            "--config", str(path),
        )
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_env_var(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg"
        path.write_text("rho_budget = 42\n")
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(path))
        cfg = load_config(None)
        assert cfg.rho_budget == 42

    def test_explicit_path_beats_env(self, tmp_path, monkeypatch):
        p1 = tmp_path / "one"
        p1.write_text("rho_budget = 1\n")
        p2 = tmp_path / "two"
        p2.write_text("rho_budget = 2\n")
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(p1))
        assert load_config(str(p2)).rho_budget == 2

    def test_config_prime_budget_feeds_galois_sample(
        self, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "cfg"
        path.write_text("prime_budget = 50\n")
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(path))
        code, out, _ = run(
            capsys, "galois-sample", "-p", "3", "-a", "1", "-b", "1",
            "--format", "jsonl",
        )
        assert code == EXIT_OK
        row = json.loads(out)
        assert row["primes_used"] == 50
        assert row["verdict"] == "inconclusive"

    def test_config_prime_budget_zero_is_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "cfg"
        path.write_text("prime_budget = 0\n")
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(path))
        code, _, err = run(
            capsys, "galois-sample", "-p", "3", "-a", "1", "-b", "1"
        )
        assert code == EXIT_USAGE
        assert err.startswith("error: prime budget must be at least 1")
