"""The compiler pipeline: commitment rounds, round collapse, parallel
repetition, public coin, and the coin-flip zero-knowledge stage.

Import the submodule that is needed (for example
`qpzk.compilers.pipeline`); importing the package loads none of them."""
