"""Canonical quantum state commitments with the double-opening game, and
the toy quantum MAC.

Import the submodule that is needed (`qpzk.crypto.commitments`,
`qpzk.crypto.mac`); importing the package loads neither of them."""
