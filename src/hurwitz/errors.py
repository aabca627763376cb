"""Error taxonomy shared by the library and the command line.

ValidationError covers malformed descriptors, inconsistent inputs and
precondition failures (CLI exit code 2).  BudgetError covers configured
resource limits being hit: order bounds, orbit caps, search caps (exit 3).
"""

from __future__ import annotations

from reprlib import repr as shown  # echoes input in a message, cut to about 30 characters


class ValidationError(ValueError):
    pass


class BudgetError(RuntimeError):
    pass
