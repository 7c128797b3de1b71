"""One-vs-rest L2-regularised logistic regression on scipy's L-BFGS.

The classifier the NRL literature (and the paper's Fig. 5) uses on top of
node embeddings. Each class gets an independent binary logistic model;
training minimises the mean log-loss plus an L2 penalty with analytic
gradients, optimised by ``scipy.optimize.minimize(method="L-BFGS-B")``.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from repro.config import check_counts, check_reals
from repro.errors import EvaluationError


def _binary_loss_grad(params, features, targets, l2):
    w = params[:-1]
    b = params[-1]
    z = features @ w + b
    # stable log(1 + exp(-|z|)) formulation
    p = 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))
    n = targets.size
    loss = float(
        np.mean(np.logaddexp(0.0, z) - targets * z) + 0.5 * l2 * (w @ w) / n
    )
    err = p - targets
    grad_w = features.T @ err / n + l2 * w / n
    grad_b = float(err.mean())
    return loss, np.concatenate([grad_w, [grad_b]])


class LogisticRegressionOVR:
    """One-vs-rest logistic regression over an indicator label matrix.

    Parameters
    ----------
    l2:
        L2 penalty weight (per-sample scaled).
    max_iter:
        L-BFGS iteration cap per class.
    """

    def __init__(self, l2: float = 1.0, max_iter: int = 200):
        check_reals({"l2": l2}, error=EvaluationError, interval="[0, inf)")
        check_counts({"max_iter": max_iter}, error=EvaluationError)
        self.l2 = float(l2)
        self.max_iter = int(max_iter)
        self.weights_: np.ndarray | None = None  # (num_classes, dim)
        self.bias_: np.ndarray | None = None  # (num_classes,)

    def fit(self, features: np.ndarray, y: np.ndarray) -> "LogisticRegressionOVR":
        """Train one binary model per column of the indicator matrix ``y``."""
        features = np.asarray(features, dtype=np.float64)
        y = np.asarray(y, dtype=bool)
        if features.ndim != 2 or y.ndim != 2 or features.shape[0] != y.shape[0]:
            raise EvaluationError("features and labels must align")
        if features.shape[0] == 0:
            raise EvaluationError("cannot fit on an empty training set")
        num_classes = y.shape[1]
        dim = features.shape[1]
        self.weights_ = np.zeros((num_classes, dim))
        self.bias_ = np.zeros(num_classes)
        for cls in range(num_classes):
            targets = y[:, cls].astype(np.float64)
            if targets.min() == targets.max():
                # degenerate class: constant predictor via bias only
                frac = float(targets.mean())
                self.bias_[cls] = 30.0 if frac >= 0.5 else -30.0
                continue
            x0 = np.zeros(dim + 1)
            result = optimize.minimize(
                _binary_loss_grad,
                x0,
                args=(features, targets, self.l2),
                method="L-BFGS-B",
                jac=True,
                options={"maxiter": self.max_iter},
            )
            self.weights_[cls] = result.x[:-1]
            self.bias_[cls] = result.x[-1]
        return self

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Raw per-class scores ``(num_samples, num_classes)``."""
        if self.weights_ is None:
            raise EvaluationError("classifier is not fitted")
        features = np.asarray(features, dtype=np.float64)
        return features @ self.weights_.T + self.bias_

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Per-class sigmoid probabilities."""
        z = self.decision_function(features)
        return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))
