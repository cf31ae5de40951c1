"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid experiment configuration. Carries one message per offending line."""

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class IntegrationError(RuntimeError):
    """Time integration failed (non-finite values, step size underflow).
    Carries the failure time."""

    def __init__(self, t, detail=""):
        self.t = t
        msg = f"integration failed at t={t:.6g}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class SnapshotError(ValueError):
    """Snapshot file is malformed, truncated, or has an unsupported version."""


class Terminated(BaseException):
    """SIGTERM, raised by the handler that cli.main installs. Like
    KeyboardInterrupt for SIGINT, it is no Exception, so that only the
    handlers that name it catch it."""
