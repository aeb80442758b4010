"""Exceptions shared by the certification pipelines."""

from .polys import rat_text


class CertificationError(Exception):
    """Base class for failures of a certification attempt."""


class DegreeError(ValueError):
    """A requested Bernstein degree is below the minimum the operation allows."""


class NotPositiveError(CertificationError):
    """Strict positivity was refuted: ``value = p(witness) <= 0``.

    ``witness`` is a point of the domain, a rational or a pair of them.  The
    message is ``p(witness) = value is not strictly positive``, or, given
    the upper end ``at_most`` of an enclosure of the minimum over the box,
    ``minimum over the box is at most at_most; p(witness) = value``.
    """

    def __init__(self, witness, value, at_most=None):
        super().__init__(witness, value, at_most)  # pickles as it was made
        self.witness, self.value = witness, value

    def __str__(self) -> str:
        witness, value, at_most = self.args
        point = ", ".join(map(rat_text, witness if isinstance(witness, tuple) else (witness,)))
        found = f"p({point}) = {rat_text(value)}"
        if at_most is None:
            return f"{found} is not strictly positive"
        return f"minimum over the box is at most {rat_text(at_most)}; {found}"


class InconclusiveError(CertificationError):
    """An iteration cap was reached before certifying or refuting.

    ``best`` carries the tightest enclosure computed before giving up.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best
