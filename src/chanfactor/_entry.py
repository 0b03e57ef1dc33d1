"""The command line's front door: the parser, the writer and the parse step,
on the standard library alone.

``--help``, each subcommand's ``--help`` and a usage error are answered
here, before numpy loads. Both entry routes run ``parse_or_exit`` first:
``run``, the ``chanfactor`` script, and ``python -m chanfactor.cli``, whose
module calls it before its own imports. A command line that parses is
handed on to ``chanfactor.cli``, which runs the command. Every byte on stdout
or stderr goes through ``_write``; a failed write is reported by
``_output_error`` and exits 3.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys

__all__ = ["build_parser", "run"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3


def _tol(text: str) -> float:
    """argparse type of --tol: a bad value is a usage error, exit 2, before any
    work. ``linalg`` loads numpy, so it is imported only when --tol is given."""
    from .linalg import _check_tol

    try:
        return _check_tol(float(text))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


class _Parser(argparse.ArgumentParser):
    """argparse's help, usage and error text go through ``_write``, so that a
    failed write raises instead of being dropped. Subparsers inherit it."""

    def _print_message(self, message, file=None):
        _write(file, message)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand; ``args.command`` names the one given.
    ``--tol`` defaults to None, which the command reads as ``linalg.ROW_TOL``."""
    parser = _Parser(
        prog="chanfactor",
        description="Factorize classical channels through minimal classical "
        "and quantum intermediate variables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="write output to this file instead of stdout")
        return p

    for name, help_text in (
        ("factorize", "causal partition and reduced channel"),
        ("qfactorize", "square-root-amplitude quantum factorization"),
    ):
        p = command(name, help_text)
        p.add_argument("channel", help="channel JSON file")
        p.add_argument("--dist", help="input distribution JSON file")
        p.add_argument("--tol", type=_tol, help="row-equality tolerance")

    p = command("heatmap", "quantum advantage grid for the binary-symmetric family")
    p.add_argument("--points", type=int, default=101, help="grid points per axis")
    p.add_argument("--alpha-points", type=int, help="alpha-axis points (default: --points)")

    p = command("phase-scan", "verify equal phases minimize entropy")
    p.add_argument("ensemble", help="JSON file with weights, a, b arrays")
    p.add_argument("--points", type=int, help="phase grid points (default 360; 72 for 3 states; "
                   "refused for more than 3 states)")

    p = command("casestudy", "entropy/purity curve of the qutrit family")
    p.add_argument("--points", type=int, default=151, help="curve samples")

    command("merge-demo", "worked ensemble-merging examples")

    return parser


def _write(stream, text: str) -> None:
    """Write text to a standard stream and flush it. The interpreter sets a
    stream to None when its descriptor was closed before start-up; writing
    to it then fails as a write to a closed descriptor does."""
    if stream is None:
        if text:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        return
    stream.write(text)
    stream.flush()


def _output_error(err: OSError) -> int:
    """Report a failed write in one ``output error:`` line on stderr, if
    stderr still takes it, and return the exit code of an I/O error."""
    with contextlib.suppress(OSError):
        _write(sys.stderr, f"output error: {err}\n")
    return EXIT_PARSE


def parse_or_exit() -> argparse.Namespace:
    """The parsed ``sys.argv``. argparse's own exits end the process here with
    ``os._exit``: 0 after ``--help``, 2 after a usage error, and 3 when their
    text cannot be written. Each write was flushed as it was made."""
    try:
        return build_parser().parse_args()
    except SystemExit as done:
        code = done.code
    except OSError as err:
        code = _output_error(err)
    os._exit(code)


def run() -> None:
    """The ``chanfactor`` script: ``parse_or_exit``, then the command in
    ``chanfactor.cli``, and ``os._exit`` with its exit code, so that no
    process pays for interpreter teardown."""
    args = parse_or_exit()
    from . import cli

    os._exit(cli._execute(args))
