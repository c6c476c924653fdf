"""Exception hierarchy shared by all valleyforge modules."""


class ValleyforgeError(Exception):
    """Base class for all errors raised by this package."""


class BadSymbol(ValleyforgeError):
    """A path word contains a character other than 'U' or 'D'."""


class UnbalancedWord(ValleyforgeError):
    """A path word has a different number of 'U' and 'D' steps."""


class NegativePrefix(ValleyforgeError):
    """Some prefix of a path word has more 'D' than 'U' steps."""


class EmptyPath(ValleyforgeError):
    """Operation requires a nonempty path."""


class NotInClass(ValleyforgeError):
    """Path violates the height or valley-run constraint of the class."""


class CapExceeded(ValleyforgeError):
    """Requested semilength exceeds the listing cap (ECO route, generate, enumerate_dyck)."""


class DomainViolation(ValleyforgeError):
    """Identity arguments are outside the window where the identity holds."""
