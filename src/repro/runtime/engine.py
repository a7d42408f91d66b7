"""Execution-engine selection.

Two engines execute IR:

* ``codegen`` (the default) lowers each function once to generated
  Python source (:mod:`repro.runtime.codegen`);
* ``reference`` keeps the op-at-a-time tree walk of
  :class:`~repro.runtime.interpreter.Interpreter`. It is the parity
  oracle, and codegen delegates its rare bookkeeping ops to it.

Both produce bit-identical virtual time, results and traces
(``tests/test_engine_parity.py``). Select one with ``REPRO_ENGINE``.
"""

from __future__ import annotations

import os

from repro.errors import InterpreterError

#: environment variable selecting the engine
ENGINE_ENV = "REPRO_ENGINE"
DEFAULT_ENGINE = "codegen"
ENGINES = ("codegen", "reference")


def engine_from_env() -> str:
    """The engine name selected by ``REPRO_ENGINE`` (default: codegen)."""
    name = os.environ.get(ENGINE_ENV, DEFAULT_ENGINE).strip() or DEFAULT_ENGINE
    if name not in ENGINES:
        raise InterpreterError(
            f"unknown {ENGINE_ENV}={name!r}; expected one of {ENGINES}"
        )
    return name
