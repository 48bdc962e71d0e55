"""Developer tooling for the reproduction itself.

Nothing in this package ships simulation behaviour; it holds the
correctness tooling the project runs over its own source tree.  Today
that is :mod:`repro.devtools.lint`, the project-invariant static
analyzer (``python -m repro.devtools.lint``) whose rules encode the
guarantees the runtime test suites otherwise only catch after the
fact: determinism of the campaign/engine layers, the uint64 dtype
discipline of the word pipeline and process-pool pickle safety of
campaign tasks.  (Invariants the code can state itself -- which
engines run the summary pass, which cost counts a code provides,
that every task field reaches the checkpoint fingerprint -- are
carried by the types instead.)
"""

__all__ = ["lint"]
