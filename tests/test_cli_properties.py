"""Property tests over argv: whatever flags and values a command line holds,
`memreport` prints strict JSON and exits 0 or prints nothing and exits 2,
and a `train` or `sweep` command line builds a RunConfig, raises a
LorafaError (exit 2 in main) or is an argparse usage error (exit 2).

--config (which opens a file) and --probe (which builds and runs a model of
the given geometry) are left out, and neither property trains a model.
`main` runs a drawn `train` command line only when its geometry is beyond
numpy's largest array, which RunConfig rejects before any array exists."""

import argparse
import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lorafa.cli import EXIT_CONFIG, EXIT_OK, _run_config_from_args, build_parser, main
from lorafa.errors import LorafaError
from lorafa.train import RunConfig


def _flags(command: str) -> dict[str, argparse.Action]:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        a.option_strings[0]: a for a in sub.choices[command]._actions
        if a.option_strings and a.dest not in ("help", "config", "probe")
    }


FLAGS = {command: _flags(command) for command in ("train", "sweep", "memreport")}
REQUIRED = {"sweep": ["--ranks", "1", "--lrs", "0.01"]}

# Text and non-finite values for any flag, and per flag type: small,
# negative and huge integers, any float, and the flag's allowed values.
BAD = st.one_of(st.sampled_from(["nan", "inf", "-inf", "1e-3", ""]), st.text(max_size=6))
HUGE = st.sampled_from([10**200, -(10**200)])


def _values(action: argparse.Action):
    if action.choices:
        good = st.sampled_from([str(c) for c in action.choices])
    elif action.type is int:
        good = st.one_of(st.integers(1, 40), st.integers(-3, 0), HUGE).map(str)
    elif action.type is float:
        good = st.one_of(st.floats(allow_nan=True, allow_infinity=True), HUGE).map(str)
    else:
        good = st.text(max_size=6)
    return st.one_of(good, good, good, BAD)  # 3 in 4 draws of the flag's type


@st.composite
def argvs(draw, command: str) -> list[str]:
    flags = FLAGS[command]
    argv = [command, *REQUIRED.get(command, [])]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=6)):
        argv.append(flag)
        if flags[flag].nargs != 0:  # not a switch
            argv.append(draw(_values(flags[flag])))
    return argv


def _reject_constant(name):
    raise AssertionError(f"memreport printed {name}, which is not JSON")


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(argvs("memreport"))
def test_memreport_prints_json_or_exits_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # an argparse usage error
            code = exc.code
    if code == EXIT_OK:
        assert isinstance(json.loads(out.getvalue(), parse_constant=_reject_constant), dict)
    else:
        assert code == EXIT_CONFIG, (argv, err.getvalue())
        assert out.getvalue() == "", argv


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(st.sampled_from(["train", "sweep"]).flatmap(argvs))
@example(["train", "--d", str(10**200), "--heads", "1"])
def test_run_argv_builds_a_config_or_fails_typed(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # an argparse usage error
            assert exc.code == EXIT_CONFIG, argv
            return
    try:
        cfg = _run_config_from_args(args)
    except LorafaError as exc:
        if argv[0] == "train" and "largest array" in str(exc):
            _assert_train_exits_2(argv)
        return
    assert isinstance(cfg, RunConfig)


def _assert_train_exits_2(argv):
    """main on a train argv whose geometry no array can hold: one line, exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["train", "--steps", "0", *argv[1:]])
    assert code == EXIT_CONFIG, argv
    assert out.getvalue() == "", argv
    assert err.getvalue().startswith("config error:") and err.getvalue().count("\n") == 1, argv
