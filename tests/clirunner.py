"""Run the `lieact` command line in this process and capture what it did."""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass

from lieactions.cli import main


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    # what ended the run: a SystemExit with a nonzero code or any other
    # exception; None for a run that ended with exit code 0
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout


def invoke(args, env: dict | None = None) -> Result:
    """`lieact args`, with `env` set in the environment for the run."""
    out, err = io.StringIO(), io.StringIO()
    saved = {key: os.environ.get(key) for key in env or {}}
    os.environ.update(env or {})
    exit_code, exception = 0, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(list(args))
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        exception = exc if exit_code else None
    except Exception as exc:  # a crash: reported like an uncaught exception, exit 1
        exit_code, exception = 1, exc
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return Result(exit_code, out.getvalue(), err.getvalue(), exception)
