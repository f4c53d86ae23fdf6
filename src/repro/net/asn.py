"""Autonomous System Number helpers.

ASNs are plain ``int`` throughout the library (cheap, hashable); this module
provides validation and AS-path parsing/formatting used by feeds, looking
glasses and serialisation code.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import BGPError

#: Highest 4-byte ASN (RFC 6793).
MAX_ASN = (1 << 32) - 1


class ASN(int):
    """A validated autonomous-system number.

    Subclasses ``int`` so it interoperates with the rest of the library
    (plain ints are accepted everywhere); constructing an ``ASN`` simply adds
    range validation and a conventional ``ASxxxx`` repr.
    """

    def __new__(cls, value: int) -> "ASN":
        number = int(value)
        if not 0 <= number <= MAX_ASN:
            raise BGPError(f"ASN {number} out of 32-bit range")
        return super().__new__(cls, number)

    def __repr__(self) -> str:
        return f"AS{int(self)}"


def parse_as_path(text: str) -> List[int]:
    """Parse a space-separated AS path string (``"3356 1299 64500"``).

    Leading/trailing whitespace is ignored; an empty string yields an empty
    path.  The tokens are checked together: one digits-only test over all
    of them, then one range check on the largest.  Raises
    :class:`~repro.errors.BGPError` on a non-numeric token or an ASN beyond
    32 bits.
    """
    tokens = text.split()
    if not tokens:
        return []
    if not "".join(tokens).isdecimal():
        bad = next(token for token in tokens if not token.isdecimal())
        raise BGPError(f"invalid ASN token {bad!r} in AS path {text!r}")
    path = list(map(int, tokens))
    if max(path) > MAX_ASN:
        raise BGPError(f"ASN {max(path)} out of 32-bit range")
    return path


def format_as_path(path: Sequence[int]) -> str:
    """Format an AS path as the conventional space-separated string."""
    return " ".join(str(int(asn)) for asn in path)
