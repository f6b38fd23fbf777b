"""Exception types shared across the package.

Every error that can escape a public operation lives here.  Each class
carries the stable exit code the CLI returns for it: 2 usage, 3 exhausted
budget, 4 failed mathematical validation, 5 index overflow, 6 schema or
file problems.
"""


class CovertowerError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 4


class BudgetExceeded(CovertowerError):
    """A search or enumeration hit its configured node/size budget."""

    exit_code = 3


class RelatorViolated(CovertowerError):
    """A permutation assignment does not satisfy the defining relators."""

    exit_code = 4


class NotTransitive(CovertowerError):
    """A coset table is not transitive from its basepoint."""

    exit_code = 4


class NotNormal(CovertowerError):
    """An operation requiring a normal subgroup was given a non-normal one."""

    exit_code = 4


class NotInvariant(CovertowerError):
    """A subgroup is not invariant under the supplied automorphism."""

    exit_code = 4


class IdentificationInvalid(CovertowerError):
    """Cover identification data does not define an isomorphism."""

    exit_code = 4


class NotAnIsomorphism(CovertowerError):
    """A lattice map is not a bijective identification."""

    exit_code = 4


class SingularMatrix(CovertowerError):
    """An integer matrix that must be invertible has determinant zero."""

    exit_code = 4


class IndexOverflow(CovertowerError):
    """A constructed subgroup would exceed the configured index cap."""

    exit_code = 5


class IntersectionIndexOverflow(IndexOverflow):
    """An iterated intersection grew past the configured index cap."""

    exit_code = 5


class IncompatibleTower(CovertowerError):
    """Tower arrows carry degree labels that do not multiply consistently."""

    exit_code = 4


class InconsistentInput(CovertowerError):
    """Mixed presentations or malformed build steps."""

    exit_code = 4


class SchemaError(CovertowerError):
    """A serialized document has the wrong schema tag or shape."""

    exit_code = 6
