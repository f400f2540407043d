"""Exception taxonomy shared across the package."""


class ParameterError(ValueError):
    """An argument is outside its admissible range."""


class DomainError(ValueError):
    """The requested quantity is undefined for these inputs."""


class AssumptionError(RuntimeError):
    """A modeling assumption required by a closed form does not hold."""


class NumericError(RuntimeError):
    """A numerical routine failed to converge to the requested tolerance."""
