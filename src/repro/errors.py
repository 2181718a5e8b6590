"""The one error family a ``repro`` command ends in without a traceback.

Errors are raised where the bad input is found — a parser, a config
validator, an output path, a ledger reader — and ``repro.cli.main`` is
the one place that turns them into an ``error: …`` line on stderr and
an exit code (DESIGN.md §3.4):

* :class:`InputError` — exit 2, the input was refused.  It is also a
  ``ValueError``, so library callers that catch those keep working;
* :class:`~repro.faults.injector.RetryBudgetExceeded` — exit 1, the run
  itself failed.

Exit 0 is a run that did its work and 141 a standard output closed
before the command finished writing (``cli.main`` handles that too).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Type


class ReproError(Exception):
    """An error the CLI reports as one ``error:`` line, exiting with
    ``exit_code``."""

    exit_code = 1


class InputError(ReproError, ValueError):
    """A refused input: a file that does not parse, a value out of
    range, a path that cannot be written."""

    exit_code = 2


@contextmanager
def refusing(
    prefix: str, *kinds: Type[BaseException]
) -> Iterator[None]:
    """Raise an error of ``kinds`` (default ``ValueError``) raised inside
    as one :class:`InputError` ``"<prefix>: <error>"``."""
    try:
        yield
    except kinds or ValueError as error:
        raise InputError(f"{prefix}: {error}") from None


def check_writable(path: str, what: str = "", make_parent: bool = False) -> None:
    """Refuse ``path`` before any work starts unless it can be opened for
    writing (``error: cannot write <what><path>: …``).  ``make_parent``
    creates its directory first.  The probe leaves no file behind."""
    try:
        parent = os.path.dirname(path)
        if make_parent and parent:
            os.makedirs(parent, exist_ok=True)
        existed = os.path.lexists(path)
        open(path, "a").close()
        if not existed:
            os.remove(path)
    except OSError as error:
        raise InputError(
            f"cannot write {what}{path}: {error.strerror or error}"
        ) from None
