"""Ideal-functionality secure computation, canonical quantum state
commitments with the double-opening game, and the toy quantum MAC.

Import the submodule that is needed (`qpzk.crypto.commitments`,
`qpzk.crypto.ideal`, `qpzk.crypto.mac`); importing the package loads none
of them."""
