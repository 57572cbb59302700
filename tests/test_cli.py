"""Command-line harness: subcommands, exit codes, trace round-trips.

Exit-code contract: 0 all checks passed, 1 violations found (with the
counterexample written out), 2 usage or configuration error.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from durastm import histories as H
from durastm.cli import main, read_trace, write_trace
from durastm.dtml import MUTATIONS, DtmlMachine, act


def _committed_write_history() -> H.History:
    m = DtmlMachine(H.Domain(2, 2, 2))
    sched = [
        act("invBegin", 1), act("B1", 1), act("B2", 1), act("resBegin", 1),
        act("invWrite", 1, addr=0, val=1), act("W1", 1), act("W2", 1),
        act("W3", 1), act("W4", 1), act("W5", 1), act("W6", 1), act("W7", 1),
        act("resWrite", 1),
        act("invCommit", 1), act("E1", 1), act("E2", 1), act("E3", 1),
        act("resCommit", 1),
    ]
    return m.run(sched)


def _dirty_read_history() -> H.History:
    # a committed read of a value nobody ever wrote
    return (H.inv_begin(1), H.res_begin(1), H.inv_read(1, 0),
            H.res_read(1, 1))


def test_no_subcommand_is_usage_error(capsys) -> None:
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_is_usage_error(capsys) -> None:
    assert main(["explore", "--bogus"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_bad_config_is_usage_error(capsys) -> None:
    # exhaustive bounds guard without --force
    assert main(["explore", "--txns", "4", "--max-steps", "4"]) == 2
    err = capsys.readouterr().err
    # the message names the flag a command-line user can pass
    assert "--force" in err
    assert main(["explore", "--txns", "4", "--max-steps", "4",
                 "--force"]) == 0


@pytest.mark.parametrize("flag, value", [
    ("--crash-prob", "2"), ("--continue-prob", "nan")])
def test_fuzz_probability_outside_unit_interval_is_usage_error(
        capsys, flag, value) -> None:
    assert main(["fuzz", flag, value, "--walks", "3"]) == 2
    err = capsys.readouterr().err
    assert flag[2:].replace("-", "_") in err


@pytest.mark.parametrize("argv", [
    ["fuzz", "--vals", "4", "--walks", "20"],
    ["walk-dtms2", "--txns", "5", "--walks", "20"],
    ["explore", "--vals", "4", "--force", "--max-steps", "10"],
])
def test_domain_beyond_default_oracle_bounds_is_checked(capsys,
                                                        argv) -> None:
    # the oracle's bounds cover every domain the command accepts
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "PASS" in captured.out and captured.err == ""


@pytest.mark.parametrize("argv", [
    ["fuzz", "--flush-prob", "0.5"],
    ["fuzz", "--force"],
    ["walk-dtms2", "--force"],
    ["mutate", "--force"],
    ["explore", "--seed", "1"],
])
def test_flags_no_command_reads_are_refused(capsys, argv) -> None:
    assert main(argv + ["--walks", "1"]) == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["explore", "--dedup", "context"],
    ["explore", "--dedup", "auto"],
])
def test_removed_dedup_policies_are_refused(capsys, argv) -> None:
    # the exhaustive search cuts by the state quotient alone
    assert main(argv) == 2
    assert f"invalid choice: '{argv[2]}'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["explore", "--checks", ""],
    ["fuzz", "--checks", ","],
    ["walk-dtms2", "--checks", " , "],
])
def test_empty_checks_list_is_refused(capsys, argv) -> None:
    # a run with no check would print PASS whatever the machine did
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error: --checks names no check" in captured.err
    assert "PASS" not in captured.out


def test_explore_clean_run_exits_zero(capsys) -> None:
    rc = main(["explore", "--txns", "1", "--addrs", "1",
               "--max-steps", "14", "--checks",
               "opacity,refinement,simrel,invariants"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "\x1b[" not in out  # plain text unless a TTY asks for color


def test_explore_mutant_writes_counterexample(tmp_path, capsys) -> None:
    out = tmp_path / "cex.jsonl"
    rc = main(["explore", "--mutation", "skip_undo_log", "--addrs", "1",
               "--max-steps", "23", "--out", str(out)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out
    cex = read_trace(str(out))
    assert cex, "counterexample must be non-empty"
    # the written counterexample is itself checkable and fails
    assert main(["check-history", "--in", str(out)]) == 1


def test_explore_mutant_without_out_prints_counterexample(capsys) -> None:
    rc = main(["explore", "--mutation", "skip_undo_log", "--addrs", "1",
               "--max-steps", "23"])
    assert rc == 1
    out = capsys.readouterr().out
    jsonl = [line for line in out.splitlines()
             if line.startswith("{")]
    assert jsonl and all(json.loads(line)["ev"] for line in jsonl)


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_explore_default_checks_catch_every_mutation(capsys,
                                                     mutation) -> None:
    # the default checks include simrel: under the state quotient the two
    # trace checks let skip_log_clear_E2 pass at every bound
    assert main(["explore", "--addrs", "1", "--mutation", mutation]) == 1
    out = capsys.readouterr().out
    assert "check simrel: " in out and "check simrel: 0 " not in out


def test_explore_names_the_action_where_simrel_broke(tmp_path,
                                                     capsys) -> None:
    # no history of this fault fails a trace check at these bounds, so
    # the counterexample is simrel's, whose history by itself passes
    out = tmp_path / "cex.jsonl"
    assert main(["explore", "--addrs", "1", "--max-steps", "34",
                 "--mutation", "skip_log_clear_E2", "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "check opacity: 0 violation(s)" in lines
    assert lines[6].startswith("simrel broke at action E2(t")
    assert lines[7].startswith("counterexample (simrel, ")
    assert main(["check-history", "--in", str(out)]) == 0


def test_invariants_check_counts_and_stops_on_each_invariant(capsys) -> None:
    # a violation is named after its invariant, and falls under the
    # invariants check both in the counts and in the stop
    rc = main(["explore", "--addrs", "1", "--mutation", "skip_log_clear_E2",
               "--max-steps", "30", "--checks", "invariants"])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["histories explored: 1979",
                         "states visited:     619",
                         "check invariants: 1 violation(s)"]
    assert lines[4].startswith("counterexample (invariant.logQuiet, ")


def test_fuzz_clean_and_seeded(capsys) -> None:
    args = ["fuzz", "--walks", "50", "--seed", "3", "--max-steps", "30"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_fuzz_mutant_with_forced_crash_bites(tmp_path) -> None:
    out = tmp_path / "cex.jsonl"
    rc = main(["fuzz", "--mutation", "skip_flush_W7", "--walks", "1000",
               "--seed", "7", "--min-crashes", "1",
               "--continue-prob", "0.85", "--crash-prob", "0.02",
               "--out", str(out)])
    assert rc == 1
    assert main(["check-history", "--in", str(out)]) == 1


def test_check_history_empty_file_passes(tmp_path) -> None:
    p = tmp_path / "empty.jsonl"
    p.write_text("")
    assert main(["check-history", "--in", str(p)]) == 0


def test_check_history_good_and_bad(tmp_path) -> None:
    good = tmp_path / "good.jsonl"
    write_trace(_committed_write_history(), str(good))
    assert main(["check-history", "--in", str(good)]) == 0
    bad = tmp_path / "bad.jsonl"
    write_trace(_dirty_read_history(), str(bad))
    assert main(["check-history", "--in", str(bad)]) == 1


def test_check_history_malformed_line_names_line_number(tmp_path,
                                                        capsys) -> None:
    p = tmp_path / "broken.jsonl"
    p.write_text('{"ev": "invBegin", "tx": 1}\n{"ev": "bogus"}\n')
    assert main(["check-history", "--in", str(p)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_check_history_deeply_nested_line_is_usage_error(tmp_path,
                                                          capsys) -> None:
    p = tmp_path / "deep.jsonl"
    p.write_text('{"ev": "invBegin", "tx": 1}\n' + "[" * 100_000 + "\n")
    assert main(["check-history", "--in", str(p)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_check_history_line_not_utf8_names_line_number(tmp_path,
                                                       capsys) -> None:
    p = tmp_path / "latin.jsonl"
    p.write_bytes(b'{"ev": "invBegin", "tx": 1}\n{"ev": "crash"}\xff\n')
    assert main(["check-history", "--in", str(p)]) == 2
    assert "line 2" in capsys.readouterr().err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.sampled_from(
        H.EV_TAGS + ("tx", "addr", "val", "abort", "ev")),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(("ev", "tx", "addr", "val", "abort")), inner,
        max_size=4),
    max_leaves=8)
_GOOD_LINES = st.sampled_from([b"", b" \t\r"] + [
    json.dumps(H.event_to_json(e)).encode()
    for e in (H.CRASH, H.inv_begin(1), H.res_begin(2), H.inv_read(1, 0),
              H.res_read(1, 1), H.res_read_abort(3), H.inv_write(2, 1, 0),
              H.res_write(1), H.res_write_abort(1), H.inv_commit(2),
              H.res_commit(2), H.res_commit_abort(1))])
_LINES = st.one_of(
    _GOOD_LINES,
    _GOOD_LINES,
    _GOOD_LINES,
    st.binary(max_size=30),
    # lone surrogates encode to bytes that are not UTF-8
    st.text(max_size=30).map(lambda s: s.encode("utf-8", "surrogatepass")),
    _JSON.map(lambda v: json.dumps(v).encode()),
).map(lambda line: line.replace(b"\n", b" "))


def _read_lines(lines: list[bytes]):
    """read_trace's history of a file holding these lines, or its error."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "trace.jsonl")
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines))
        try:
            return read_trace(path)
        except ValueError as exc:
            return exc


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(_LINES, max_size=5))
def test_read_trace_returns_a_history_or_names_the_first_bad_line(
        lines) -> None:
    got = _read_lines(lines)
    bad = [n for n, line in enumerate(lines, start=1)
           if isinstance(_read_lines([line]), ValueError)]
    if not bad:
        assert isinstance(got, tuple)
        assert all(isinstance(e, H.Event) for e in got)
    else:
        assert isinstance(got, ValueError)
        assert f": line {bad[0]}: " in str(got)


def test_check_refinement_good_and_bad(tmp_path) -> None:
    good = tmp_path / "good.jsonl"
    write_trace(_committed_write_history(), str(good))
    assert main(["check-refinement", "--in", str(good)]) == 0
    bad = tmp_path / "bad.jsonl"
    write_trace(_dirty_read_history(), str(bad))
    assert main(["check-refinement", "--in", str(bad)]) == 1


def test_check_refinement_cost_follows_id_count_not_size(tmp_path,
                                                        capsys) -> None:
    # ids are renamed densely before acceptance, so a huge address costs
    # no more than address 1 and yields the same verdict
    codes = []
    for addr in (1, 1_000_000):
        p = tmp_path / f"read{addr}.jsonl"
        write_trace((H.inv_begin(1), H.res_begin(1), H.inv_read(1, addr)),
                    str(p))
        codes.append(main(["check-refinement", "--in", str(p)]))
        assert "addrs=1 " in capsys.readouterr().out
    assert codes == [0, 0]


def test_check_history_cost_follows_value_count_not_size(tmp_path,
                                                         capsys) -> None:
    # values are renamed densely before the oracle runs, and it checks
    # against 0 and the values the trace names only, so a dirty read of
    # value 1,000,000 is checked against the same small domain as value 1
    # and fails at the same prefix
    codes, outs = [], []
    for val in (1, 1_000_000):
        p = tmp_path / f"read{val}.jsonl"
        write_trace((H.inv_begin(1), H.res_begin(1), H.inv_read(1, 0),
                     H.res_read(1, val)), str(p))
        codes.append(main(["check-history", "--in", str(p)]))
        outs.append(capsys.readouterr().out)
    assert codes == [1, 1]
    assert "(failing prefix: 4)" in outs[0]
    assert "value domain of 2 values" in outs[0]
    assert outs[0] == outs[1]
    # the value domain is derived, never given
    assert main(["check-history", "--in", str(p), "--vals", "1000000"]) == 2
    capsys.readouterr()
    # a pending read with no value named is checked against 0 alone
    p = tmp_path / "pending.jsonl"
    write_trace((H.inv_begin(1), H.res_begin(1), H.inv_read(1, 0)), str(p))
    assert main(["check-history", "--in", str(p)]) == 0
    assert "value domain of 1 values" in capsys.readouterr().out
    # more values than the oracle's default bound of 3 are still checked
    writes = tuple(e for v in (10, 20, 30, 40)
                   for e in (H.inv_write(1, 0, v), H.res_write(1)))
    p = tmp_path / "many.jsonl"
    write_trace((H.inv_begin(1), H.res_begin(1)) + writes
                + (H.inv_commit(1), H.res_commit(1), H.inv_begin(2),
                   H.res_begin(2), H.inv_read(2, 0), H.res_read(2, 40)),
                str(p))
    assert main(["check-history", "--in", str(p)]) == 0
    assert "value domain of 5 values" in capsys.readouterr().out


def test_check_history_refuses_more_transactions_than_the_oracle_bound(
        tmp_path, capsys) -> None:
    # eight transactions leave a write pending and a ninth reads a value
    # none of them wrote: the oracle would search the completions of every
    # pending write, so the trace is refused by the default bound of four
    # transactions, while its values are still bounded by the trace alone
    h = tuple(e for t in range(1, 9)
              for e in (H.inv_begin(t), H.res_begin(t), H.inv_write(t, 0, 1)))
    h += (H.inv_begin(9), H.res_begin(9), H.inv_read(9, 0),
          H.res_read(9, 2), H.inv_commit(9), H.res_commit(9))
    p = tmp_path / "wide.jsonl"
    write_trace(h, str(p))
    assert main(["check-history", "--in", str(p)]) == 2
    captured = capsys.readouterr()
    assert "error: more than 4 transactions" in captured.err
    assert "Traceback" not in captured.err
    assert main(["check-refinement", "--in", str(p)]) == 1


_SIZE_FLAGS = {"--txns": "num_txns", "--addrs": "num_addrs",
               "--vals": "num_vals"}


@pytest.mark.parametrize("flag", sorted(_SIZE_FLAGS))
@pytest.mark.parametrize("command", [
    None, "explore", "fuzz", "walk-dtms2", "mutate"])
def test_domain_size_below_one_is_refused(capsys, command, flag) -> None:
    # None constructs the domain directly; the subcommands build it from
    # their flags, and must answer with a usage error, not a traceback
    name = _SIZE_FLAGS[flag]
    if command is None:
        with pytest.raises(ValueError, match=name):
            H.Domain(**{name: 0})
        return
    assert main([command, flag, "0"]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err


def test_walk_dtms2_clean(capsys) -> None:
    rc = main(["walk-dtms2", "--walks", "30", "--seed", "3",
               "--max-steps", "25", "--max-crashes", "2",
               "--checks", "opacity,weaksim"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_mutate_reports_all_caught(capsys) -> None:
    rc = main(["mutate", "--seed", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("skip_flush_W7", "skip_undo_log", "skip_log_clear_E2"):
        assert name in out
    assert "caught" in out and "escaped" not in out


def test_report_file_is_json(tmp_path) -> None:
    rp = tmp_path / "report.json"
    assert main(["explore", "--txns", "1", "--addrs", "1",
                 "--max-steps", "12", "--report", str(rp)]) == 0
    data = json.loads(rp.read_text())
    assert data["ok"] is True
    assert data["histories_explored"] > 0
    assert not [k for k in data if k.startswith("txn_rel_flag")]


def test_trace_round_trip(tmp_path) -> None:
    h = _committed_write_history() + (H.CRASH,)
    p = tmp_path / "trace.jsonl"
    write_trace(h, str(p))
    assert read_trace(str(p)) == h
    crash_line = p.read_text().splitlines()[-1]
    assert json.loads(crash_line) == {"ev": "crash"}


def test_module_entry_point() -> None:
    out = subprocess.run(
        [sys.executable, "-m", "durastm.cli", "explore", "--txns", "1",
         "--addrs", "1", "--max-steps", "10"],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert "PASS" in out.stdout
