"""Exception hierarchy for the complex-object library.

All library-specific exceptions derive from :class:`ComplexObjectError` so a
caller can catch everything raised by the package with a single handler while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ComplexObjectError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class NotAnObjectError(ComplexObjectError, TypeError):
    """A Python value could not be converted into a complex object.

    Raised by the convenience constructors in :mod:`repro.core.builder` when
    they encounter a value outside the model of Definition 2.1 (for example a
    ``None``, a function, or a dictionary with non-string keys).
    """


class NormalizationError(ComplexObjectError, ValueError):
    """An object violates a structural invariant that normalization assumes.

    This is an internal-consistency error: it indicates a raw object was
    constructed with components that are not complex objects at all.
    """


class NestingError(ComplexObjectError, RecursionError):
    """An object is nested too deeply for a recursive operation to finish.

    Raised in place of a raw :class:`RecursionError` by the printing entry
    points (``ComplexObject.to_text``, :func:`repro.parser.printer.pretty`),
    the set-building ones (``SetObject(...)``, ``raw``, ``add``, ``discard``),
    the session's (``prepare`` / ``execute`` / ``query`` / ``explain`` /
    ``close``) and ``Rule(...)``; the message names the nesting depth of the
    object or formula that overflowed.
    """


class DivergenceError(ComplexObjectError, RuntimeError):
    """A fixpoint computation exceeded its resource guards.

    The calculus of Section 4 admits rule sets with no finite closure
    (Example 4.6 of the paper).  :func:`repro.calculus.fixpoint.close` raises
    this exception when the iteration, size, or depth guard trips, and records
    the partially computed object on the ``partial`` attribute so callers can
    inspect how far the computation got.
    """

    def __init__(self, message: str, partial=None, iterations: int = 0):
        super().__init__(message)
        self.partial = partial
        self.iterations = iterations


class ParseError(ComplexObjectError, ValueError):
    """The concrete-syntax parser rejected its input.

    Carries the offending position so error messages can point at the exact
    character where parsing failed.
    """

    def __init__(self, message: str, text: str = "", position: int = 0):
        location = ""
        if text:
            line = text.count("\n", 0, position) + 1
            column = position - (text.rfind("\n", 0, position) + 1) + 1
            location = f" at line {line}, column {column}"
        super().__init__(f"{message}{location}")
        self.text = text
        self.position = position


class ParameterError(ComplexObjectError, ValueError):
    """A parameterized query was executed with missing or unknown parameters.

    Prepared queries (see :mod:`repro.api`) may contain named ``$parameter``
    slots; every slot must be bound at execute time, and binding a name the
    query does not mention is rejected rather than silently ignored.
    """


class UnboundVariableError(ComplexObjectError, KeyError):
    """Instantiation reached a variable with no binding and no default.

    Raised by :func:`repro.calculus.substitution.instantiate` when called
    with ``default=None`` (the strict mode) and the substitution does not
    bind a variable of the target formula.  Derives from :class:`KeyError`
    for compatibility with callers that predate the one-error-surface
    contract of :mod:`repro.api`; carries the variable name on ``name``.
    """

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        # KeyError.__str__ would repr the argument; a diagnostic sentence is
        # more useful to callers formatting the one-line error surface.
        return f"unbound variable {self.name}"


class LintError(ComplexObjectError, ValueError):
    """Static analysis rejected a program or query (``lint="strict"``).

    Raised by :meth:`repro.api.Session.prepare` under ``lint="strict"``
    when :mod:`repro.lint` reports error- or warning-severity diagnostics.
    The offending :class:`repro.lint.Diagnostic` records are attached on
    ``diagnostics`` so callers can render or filter them.
    """

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class SchemaError(ComplexObjectError, ValueError):
    """An object or formula does not conform to a declared type."""


class AlgebraError(ComplexObjectError, ValueError):
    """An algebra expression is ill-formed or was applied to an unsuitable object."""


class StoreError(ComplexObjectError, RuntimeError):
    """The object store could not complete a request."""


class TransactionError(StoreError):
    """A transaction was used after commit/abort or violated isolation rules."""


class ConflictError(TransactionError):
    """A write-write conflict: the object changed since the caller read it.

    Raised by :meth:`repro.store.ObjectDatabase.commit_batch` when the
    ``expected`` snapshot no longer matches the committed state (first
    committer wins).  Unlike its :class:`TransactionError` parent — which
    also covers terminal misuse such as touching a finished transaction —
    a conflict is *retryable*: re-reading and recomputing is expected to
    succeed, which is exactly what the CAS helpers and
    :meth:`repro.api.Session.transact` do (with bounded, jittered backoff).
    """


class LockTimeout(StoreError):
    """The store's writer mutex was not acquired within the caller's deadline.

    Raised by :meth:`repro.store.locks.WriteLock.acquire` when called with
    ``timeout=`` (or armed with ``connect(lock_timeout=...)``) and another
    writer held the lock past the deadline — the graceful-degradation
    alternative to blocking forever.  Only commits and the reads that
    consult path indexes wait for the mutex; other reads take no lock.
    """


class QueryTimeout(ComplexObjectError, TimeoutError):
    """A cooperative query deadline expired before evaluation finished.

    Raised by :meth:`repro.api.Session.execute` (and everything downstream:
    the plan executor between instance steps, the engine between fixpoint
    rounds) when called with ``timeout_ms=``.  Carries how far evaluation
    got: ``elapsed_ms``/``timeout_ms``, the ``partial_explain`` rendering of
    the in-flight plan or engine state, and — for closure evaluations — the
    ``partial`` object computed so far.
    """

    def __init__(
        self,
        message: str,
        *,
        timeout_ms=None,
        elapsed_ms=None,
        partial_explain=None,
        partial=None,
    ):
        super().__init__(message)
        self.timeout_ms = timeout_ms
        self.elapsed_ms = elapsed_ms
        self.partial_explain = partial_explain
        self.partial = partial


class InjectedFault(StoreError):
    """A deterministic fault fired by :mod:`repro.fault` (``mode="fail"``).

    Deliberately a :class:`StoreError`: an injected I/O failure must surface
    to callers exactly like the real failure it simulates, so tests exercise
    the same handling paths production errors take.
    """
