"""Experiment configuration shared by the round runner and the CLI.

A single dataclass carries every knob an experiment run needs; the CLI
builds it from an INI file plus flag overrides, library callers build it
directly. Validation happens in `validate` so both paths share it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional

from .datagen import SETTINGS, SettingSpec
from .errors import ConfigError, InvalidSetting
from .learner import OPTIMIZERS, POLICIES
from .unrolled_net import DUAL_UPDATES, GRAD_LR_DEFAULT, GRAD_STEPS_DEFAULT, MODES

METHODS = (
    "unrolled",
    "local",
    "local_exact",
    "fedavg",
    "fedprox",
    "fedavg_ft",
    "fedprox_ft",
    "ditto",
)


@dataclass
class ExperimentConfig:
    # benchmark
    setting: int = 1
    M: int = SettingSpec.M
    n_per_client: int = SettingSpec.n_per_client
    noise_std: float = SettingSpec.noise_std
    trials: int = 1
    seed: Optional[int] = None

    # which methods to run (compare) / single method (run)
    methods: List[str] = field(default_factory=lambda: ["unrolled", "local", "fedavg"])

    # unrolled network
    L: int = 10
    rounds: int = 500
    epochs_per_round: int = 2
    lr: float = 0.01
    optimizer: str = "gd"
    policy: str = "exact"
    tied: bool = False
    participation: float = 1.0
    mode: str = "linear"
    dual_update: str = "rho_step"
    batch_size: int = 64           # grad mode only; linear mode is full batch
    grad_lr: float = GRAD_LR_DEFAULT
    grad_steps: int = GRAD_STEPS_DEFAULT

    # baselines
    local_epochs: int = 2
    baseline_lr: float = 0.01
    baseline_batch: Optional[int] = None   # full batch
    mu: float = 0.01
    lambda_ditto: float = 1.0
    ft_epochs: int = 20
    standardize: bool = True

    # outputs
    out_dir: str = "."
    transcript: bool = False
    diagnostics: bool = False

    def validate(self) -> None:
        if self.seed is None:
            raise ConfigError("seed is required (set it in [experiment] or pass --seed)")
        if not self.methods:
            raise ConfigError("methods must name at least one method")
        # each set of allowed values is owned by the module that implements it
        choices = [
            ("setting", self.setting, SETTINGS),
            ("optimizer", self.optimizer, OPTIMIZERS),
            ("policy", self.policy, POLICIES),
            ("mode", self.mode, MODES),
            ("dual_update", self.dual_update, DUAL_UPDATES),
        ]
        choices += [("method", m, METHODS) for m in self.methods]
        for name, value, allowed in choices:
            if value not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")
        try:
            self.setting_spec()  # the benchmark's own bounds (clients, samples, noise_std)
        except InvalidSetting as exc:
            raise ConfigError(str(exc)) from exc
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.L < 1:
            raise ConfigError("layers must be >= 1")
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        if self.epochs_per_round < 1:
            raise ConfigError("epochs_per_round must be >= 1")
        if not 0.0 < self.participation <= 1.0:
            raise ConfigError("participation must lie in (0, 1]")
        if self.lr <= 0 or self.baseline_lr <= 0 or self.grad_lr <= 0:
            raise ConfigError("learning rates must be positive")
        if self.ft_epochs < 0 or self.local_epochs < 1 or self.grad_steps < 1:
            raise ConfigError("epoch/step counts out of range")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.baseline_batch is not None and self.baseline_batch < 1:
            raise ConfigError("baseline batch must be >= 1 (or none for full batch)")

    def setting_spec(self) -> SettingSpec:
        """The benchmark instance this config describes, on its seed."""
        return SettingSpec(setting=self.setting, M=self.M, n_per_client=self.n_per_client,
                           noise_std=self.noise_std, seed=self.seed)

    def replace(self, **kw) -> "ExperimentConfig":
        return dataclasses.replace(self, **kw)


FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def coerce_field(name: str, text: str):
    """Parse one INI value to the configured field's type."""
    if name not in FIELD_TYPES:
        raise ConfigError(f"unknown config key {name!r}")
    text = text.strip()
    ftype = FIELD_TYPES[name]
    try:
        if name == "methods":
            return [tok.strip() for tok in text.split(",") if tok.strip()]
        if name in ("seed", "baseline_batch"):
            return None if text.lower() in ("", "none") else int(text)
        if ftype == "bool":
            low = text.lower()
            if low in _BOOL_TRUE:
                return True
            if low in _BOOL_FALSE:
                return False
            raise ValueError(text)
        if ftype == "int":
            return int(text)
        if ftype == "float":
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {name!r}: {text!r}") from exc
