"""Classifier/predictor zoo: the ``h(x; w)``, ``l`` pairs of Section III-A.

* :class:`~repro.models.logistic.MulticlassLogisticRegression` — Table I,
  the model used in every experiment of the paper.
* :class:`~repro.models.linear_svm.MulticlassLinearSVM` — Crammer-Singer
  hinge loss, one of the other supported algorithm families.
* :class:`~repro.models.ridge.RidgeRegression` — the regression
  instantiation (real-valued targets).

All models share the flat-parameter :class:`~repro.models.base.Model`
interface and report the L1 sensitivity of their averaged minibatch
gradient so devices can calibrate the Laplace mechanism of Theorem 1.
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(__name__, {
    "Model": "base",
    "MulticlassLinearSVM": "linear_svm",
    "MulticlassLogisticRegression": "logistic",
    "RidgeRegression": "ridge",
})
