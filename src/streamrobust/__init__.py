"""Streaming robust linear regression.

Averaged stochastic gradient descent on the absolute loss recovers linear
models from corrupted streams at the parametric rate, as long as the
corruption hits the responses independently of the features. This package
bundles the estimator, the closed-form smoothed objective it implicitly
minimizes, seeded data generators, a numerical verification suite for the
supporting inequalities, and a benchmark harness with a CLI.

Each name is imported from the module that defines it: `core` (models,
losses, schedules, records, seeding), `datagen` (streams as arrays),
`optimizer` (the SGD engine), `analytic` (closed forms), `verify` (the check
suite), `bench` (experiments) and `cli`.
"""

__version__ = "0.1.0"
