"""Exception types shared across the package, and the value text of their messages."""


class InvalidPotentialError(ValueError):
    """The polynomial potential violates integrability or parity requirements."""


class IntegrationFailureError(RuntimeError):
    """A trapezoidal rule (normalization or Stieltjes) stalled or ran out of budget."""


class PrecisionFailureError(RuntimeError):
    """The Stieltjes recurrence broke down: its sampled weight or a norm vanished."""


class SolverConsistencyError(RuntimeError):
    """A linear solve violated its residual contract (internal inconsistency)."""


class ConfigError(ValueError):
    """A run configuration failed validation."""


def describe(value) -> str:
    """repr(value) for an error message.  Python prints no int of more than
    sys.get_int_max_str_digits() digits, so such an int, alone or in a list
    or tuple, is named by its digit count instead."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, (list, tuple)):
            return "[" + ", ".join(map(describe, value)) + "]"
        # Imported here: only such an int needs it, and it costs every run
        # about 0.3 MiB of resident memory.
        import decimal
        digits = decimal.Decimal(abs(value)).adjusted() + 1
        return "-" * (value < 0) + f"<int of {digits} digits>"
