"""The library's exception type."""


class NumericalError(RuntimeError):
    """Linear-algebra, root-search or calibration failure on otherwise valid inputs."""
