"""Developer tooling for the ORP reproduction.

Hosts ``repro-lint``: the per-file rules (:mod:`repro.devtools.lint`)
and the whole-program dataflow rules REP010-REP013
(:mod:`repro.devtools.flow`), applied together in one run.  Runtime
enforcement of the same conventions lives in
:mod:`repro.utils.contracts`.

Nothing is imported here: ``python -m repro.devtools.lint`` imports this
package first, and a package that had already imported ``lint`` would
make runpy warn that the module is executed twice.
"""
