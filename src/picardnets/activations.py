"""Elementwise activation functions applied between network layers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_KINDS = ("relu", "leaky_relu", "repu", "softplus")


@dataclass(frozen=True)
class Activation:
    """One of the supported activation families.

    kind:
        "relu"        max(x, 0)
        "leaky_relu"  max(x, alpha * x), alpha >= 0 and alpha != 1
        "repu"        max(x, 0) ** gamma, integer gamma >= 2
        "softplus"    log(1 + exp(x)), evaluated in a stable form
    """

    kind: str
    alpha: float = 0.0
    gamma: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind == "leaky_relu":
            if not np.isfinite(self.alpha) or self.alpha < 0.0:
                raise ValueError("leaky_relu slope must be finite and >= 0")
            if self.alpha == 1.0:
                raise ValueError("leaky_relu slope 1 is the identity map and is excluded")
        if self.kind == "repu":
            if int(self.gamma) != self.gamma or self.gamma < 2:
                raise ValueError("repu exponent must be an integer >= 2")

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply elementwise; with `out` (which may be `x` itself) the result is written there."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "leaky_relu":
            return np.maximum(x, self.alpha * x, out=out)
        if self.kind == "softplus":
            # max(x, 0) + log1p(exp(-|x|)) avoids overflow on both tails; the
            # tail is computed first, since `out` may be `x`
            tail = np.abs(x)
            np.negative(tail, out=tail)
            np.exp(tail, out=tail)
            np.log1p(tail, out=tail)
        y = np.maximum(x, 0.0, out=out)
        if self.kind == "repu":
            y **= self.gamma
        elif self.kind == "softplus":
            y += tail
        return y

    def tag(self) -> str:
        """Serialization tag, e.g. "relu", "leaky_relu:0.1", "repu:3"."""
        if self.kind == "leaky_relu":
            return f"leaky_relu:{self.alpha!r}"
        if self.kind == "repu":
            return f"repu:{self.gamma}"
        return self.kind


def relu() -> Activation:
    return Activation("relu")


def leaky_relu(alpha: float) -> Activation:
    return Activation("leaky_relu", alpha=float(alpha))


def repu(gamma: int) -> Activation:
    return Activation("repu", gamma=int(gamma))


def softplus() -> Activation:
    return Activation("softplus")


def parse_activation(tag: str) -> Activation:
    """Inverse of Activation.tag()."""
    name, sep, arg = tag.partition(":")
    if name in ("relu", "softplus"):
        if sep:
            raise ValueError(f"{name} takes no argument, got {tag!r}")
        return relu() if name == "relu" else softplus()
    if name in ("leaky_relu", "leaky"):
        if not arg:
            raise ValueError("leaky_relu tag needs a slope, e.g. 'leaky_relu:0.1'")
        return leaky_relu(float(arg))
    if name == "repu":
        if not arg:
            raise ValueError("repu tag needs an exponent, e.g. 'repu:2'")
        return repu(int(arg))
    raise ValueError(f"unknown activation tag {tag!r}")
