"""quasinv: exact arithmetic for quasi-invariant algebras of reflection groups.

Everything is computed over exact coefficient fields (rationals or cyclotomic
extensions); there is no floating-point mode.  All types are immutable values
and all operations are pure functions, so shared concurrent reads are safe.

Each name is imported from the module that defines it (`quasinv.quasi`,
`quasinv.tower`, `quasinv.elliptic`, ...); `import quasinv` loads none of them.
"""

__version__ = "0.1.0"
