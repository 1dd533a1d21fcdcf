"""defekt: exact evaluation, minimization and invariants for one-dimensional
defect theories.

The package works over the rationals or a prime field, always exactly:

- ``exactla``: scalars, dense matrices, polynomials, deterministic
  elimination.
- ``series``: words and cyclic words over an alphabet, linear (weighted
  automaton style) representations of interval and circle evaluations,
  one-variable rational generating functions.
- ``universal``: the minimal state space of an interval evaluation, and the
  pair state space with its arc subalgebra, matrix ideal and kernel ideal.
- ``onevar``: closed-form one-letter analysis via characteristic
  polynomials, with a cross-check against the generic pipeline.
- ``diagrams``: decorated one-manifold diagrams, gluing, closed evaluation,
  and state-space dimensions from the Brauer ranks of the kernel algebra.
- ``frobenius``: symmetric Frobenius algebras, dual bases, window maps,
  surface evaluation (closed form and step-by-step surgery), the induced
  map from the cocenter to the center, and a semisimplicity obstruction.
- ``openclosed``: zipper/cozipper pairs, mixed open-closed surface
  evaluation, and circle state-space estimates.
- ``lru``: the bounded map behind the three document memos (theories,
  algebras and diagram pieces, each keyed by a document's exact bytes)
  and the diagram context's memos of interval and circle values.
- ``cli``: the ``defekt`` command-line tool (JSON in, JSON out).
"""

__version__ = "0.1.0"
