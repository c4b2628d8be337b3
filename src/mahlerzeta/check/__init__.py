"""The check layer: what only cross-checks production.

Its modules hold the exact identities (:mod:`.identities`), the exact
reductions and moment closed forms (:mod:`.reduce`), the reference table
rows (:mod:`.tables`) and the ``verify`` registry (:mod:`.registry`); the
numerical oracle is :mod:`mahlerzeta.oracle`, kept at the package root
because tracers look it up there.  This file imports none of them, so the
oracle's import of :mod:`.identities` loads neither the registry nor the
tables.
"""
