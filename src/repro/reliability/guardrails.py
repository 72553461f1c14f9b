"""Numerical guardrails: opt-in output validation for sparse kernels.

The paper's mixed-precision path (Section V-D3) stores fp16 values whose
representable range tops out at 65504 — long sparse rows with moderate
magnitudes saturate to ``inf`` on the output cast without any exception.
These guardrails make that failure mode loud and recoverable:

- :func:`check_finite_result` scans a kernel output for NaN/Inf and raises
  a classified :class:`NumericalError` — ``kind="fp16_overflow"`` when the
  output is half precision (recoverable: the dispatch layer re-runs the
  kernel in fp32 as *degraded mode*), ``kind="nonfinite"`` otherwise
  (terminal: full-precision NaN/Inf means the inputs are bad).
- :func:`guarded` scopes ``numpy``'s overflow warning off around a guarded
  attempt, so chaos CI can run with ``-W error::RuntimeWarning`` and still
  exercise the saturation path: only *unguarded* overflows abort.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .errors import NumericalError


def output_values(output: Any) -> np.ndarray:
    """The numeric payload of a kernel output (dense array or CSR values)."""
    values = getattr(output, "values", None)
    if values is not None:
        return np.asarray(values)
    return np.asarray(output)


def scan_output(output: Any) -> dict[str, int]:
    """Count non-finite entries in a kernel output: ``{"nan": n, "inf": n}``."""
    values = output_values(output)
    if values.dtype.kind != "f":
        return {"nan": 0, "inf": 0}
    return {
        "nan": int(np.isnan(values).sum()),
        "inf": int(np.isinf(values).sum()),
    }


def check_finite_result(result: Any, op: str, backend: str) -> None:
    """Raise :class:`NumericalError` if a kernel result has NaN/Inf output.

    ``result`` is a :class:`~repro.core.types.KernelResult`; fp16 outputs
    containing ``inf`` (and no NaN) are classified as recoverable overflow,
    anything else non-finite as terminal.
    """
    issues = scan_output(result.output)
    if not issues["nan"] and not issues["inf"]:
        return
    values = output_values(result.output)
    if values.dtype == np.float16 and not issues["nan"]:
        raise NumericalError(
            f"{op}/{backend}: {issues['inf']} fp16 outputs overflowed the "
            "half-precision range (Section V-D3); degraded fp32 re-run "
            "applies",
            kind="fp16_overflow",
        )
    raise NumericalError(
        f"{op}/{backend}: non-finite output "
        f"({issues['nan']} NaN, {issues['inf']} Inf)",
        kind="nonfinite",
    )


def validate_operands(operands) -> None:
    """Deep-validate every sparse operand that supports it."""
    for operand in operands:
        deep = getattr(operand, "validate_deep", None)
        if deep is not None:
            deep()


def guarded():
    """Context for a guarded kernel attempt.

    numpy's overflow warning is suppressed for the attempt — the guardrail
    detects and classifies the saturation itself, so under
    ``-W error::RuntimeWarning`` only unguarded overflow aborts a run.
    """
    return np.errstate(over="ignore")
