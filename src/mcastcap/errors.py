"""Exception hierarchy for the mcastcap library."""


class McastcapError(Exception):
    """Base class for all library errors."""


class InvalidGraph(McastcapError):
    """Graph violates a structural invariant (dangling endpoint, self-loop, bad capacity)."""


class DisconnectedTerminals(McastcapError):
    """Some pair of terminals is not connected in the graph."""


class BridgeBetweenTerminals(McastcapError):
    """A cut-edge separates two terminals; the terminal connectivity is 1."""


class UnknownVertex(McastcapError):
    pass


class UnknownEdge(McastcapError):
    pass


class NotIncident(McastcapError):
    """The two edges do not share an endpoint (or the requested pivot)."""


class CutEdgeAtPivot(McastcapError):
    """A cut-edge is incident to the splitting pivot."""


class InvalidPacking(McastcapError):
    pass


class ResourceLimit(McastcapError):
    """An exact search would exceed, or has used up, a named size limit."""


class TooManyTrees(ResourceLimit):
    """Minimal Steiner tree enumeration exceeded the requested limit."""


class SearchTooLarge(ResourceLimit):
    """The packing branch and bound, the edge-strength search or the tree
    enumeration used its budget without a proved optimum."""


class BadSlot(McastcapError):
    """Relay slot index outside the cycle's gap range."""


class Underconnected(McastcapError):
    """Randomly generated instance has terminal connectivity below 2."""


class CertificateError(McastcapError):
    """A computed result failed its independent certificate check: a bug, not bad input."""
