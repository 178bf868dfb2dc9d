"""Exception types shared across the package, and its one memory cap."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class CapacityError(ValueError):
    """A request exceeds the configured desk-scale resource bounds."""


class ContractError(ValueError):
    """Inputs violate a structural precondition (support shape, sign, ...)."""


# bytes one request may hold at once: `verify closeness --Y 16777216 --h-exponent 0.3`
# peaked at 1015 MB on a 2-core x86-64 host with numpy 2.4, too near 2^30
MEMORY_CAP = 1 << 31


def require_memory(what: str, nbytes: int) -> None:
    """Raise CapacityError when `what`, estimated at nbytes, would hold more than
    MEMORY_CAP bytes.  Each caller states its estimate before it allocates."""
    if nbytes > MEMORY_CAP:
        raise CapacityError(f"{what} needs {nbytes} bytes, beyond the cap {MEMORY_CAP} bytes")
