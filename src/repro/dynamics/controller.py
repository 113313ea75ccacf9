"""Runtime exit controllers: relaxing the ideal-input-mapping assumption.

The paper's system model assumes *ideal input mapping*: the number of stages
a sample needs is known a priori (Sect. III-B), and it points to runtime
controllers such as those in HADAS [17] for realising the decision in
practice.  This module provides that missing runtime piece as an extension:

* a per-sample **difficulty model** -- each validation sample draws a latent
  difficulty, and a stage classifies it correctly when the stage's accuracy
  budget covers that difficulty (this reproduces exactly the ``N_i`` counts
  of the ideal analysis in expectation);
* a **confidence-threshold controller** -- the deployed policy does not know
  the ground truth, it only sees the exit's confidence.  The controller exits
  at the first stage whose confidence clears a threshold, which introduces
  the two realistic error modes: *premature exits* (confidently wrong at an
  early stage) and *unnecessary escalations* (correct but under-confident).

Monte-Carlo simulation over a synthetic sample population yields accuracy,
expected stages, latency and energy under the non-ideal policy, so the gap
between the paper's idealised numbers and a deployable controller can be
quantified (see ``examples``/tests and EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..perf.evaluator import HardwareProfile
from ..utils import as_rng, check_fraction

__all__ = ["ControllerResult", "ExitDecision", "ThresholdExitController"]


@dataclass(frozen=True)
class ExitDecision:
    """Outcome of the controller for one individual request.

    ``stage`` is the terminating stage index, ``correct`` whether the exit's
    prediction is right, ``premature`` whether the controller exited
    confidently-wrong before a stage that could have classified the sample,
    and ``escalated`` whether a correct-but-under-confident stage was passed
    over (paying for extra stages).
    """

    stage: int
    correct: bool
    premature: bool
    escalated: bool


@dataclass(frozen=True)
class ControllerResult:
    """Monte-Carlo outcome of dynamic inference under a runtime controller."""

    accuracy: float
    exit_fractions: Tuple[float, ...]
    expected_stages: float
    expected_latency_ms: float
    expected_energy_mj: float
    premature_exit_fraction: float
    escalation_fraction: float
    num_samples: int

    def __post_init__(self) -> None:
        if abs(sum(self.exit_fractions) - 1.0) > 1e-6:
            raise ConfigurationError("exit fractions must sum to one")


class ThresholdExitController:
    """Confidence-threshold early-exit policy.

    Parameters
    ----------
    threshold:
        Confidence required to terminate at a non-final stage.  Higher values
        push more samples to later stages (safer but slower / hungrier).
    confidence_noise:
        Standard deviation of the controller's confidence estimate around the
        stage's true correctness probability; models the gap between softmax
        confidence and correctness.
    seed:
        Seed of the Monte-Carlo sample population.
    """

    def __init__(
        self,
        threshold: float = 0.7,
        confidence_noise: float = 0.1,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        check_fraction(threshold, "threshold")
        if confidence_noise < 0:
            raise ConfigurationError(f"confidence_noise must be >= 0, got {confidence_noise}")
        self.threshold = float(threshold)
        self.confidence_noise = float(confidence_noise)
        self._rng = as_rng(seed)

    # -- shared model pieces -----------------------------------------------------
    @staticmethod
    def _validated_accuracies(stage_accuracies: Sequence[float]) -> "list[float]":
        """Validate the per-stage accuracy vector (non-empty, non-decreasing)."""
        accuracies = [check_fraction(value, "stage accuracy") for value in stage_accuracies]
        if not accuracies:
            raise ConfigurationError("stage_accuracies must be non-empty")
        if any(b < a - 1e-9 for a, b in zip(accuracies, accuracies[1:])):
            raise ConfigurationError("stage accuracies must be non-decreasing")
        return accuracies

    def _confidence(self, correct: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Noisy confidence estimates for a boolean correctness array.

        The single model both :meth:`simulate` and :meth:`decide_many`
        observe: the true correctness probability, blurred by the Gaussian
        ``noise`` (standard deviation ``confidence_noise``), with wrong
        predictions biased half a unit down, clipped to ``[0, 1]``.
        """
        return np.clip(correct.astype(float) + noise - 0.5 * (~correct), 0.0, 1.0)

    def decide(
        self,
        difficulty: float,
        stage_accuracies: Sequence[float],
        rng: "np.random.Generator | None" = None,
    ) -> ExitDecision:
        """Decide the terminating stage for one request of known difficulty.

        This is the per-request counterpart of :meth:`simulate` and the
        one-row case of :meth:`decide_many`, which the serving simulator
        (:mod:`repro.serving`) uses: the request is classifiable by stage ``i`` iff
        ``difficulty <= stage_accuracies[i]``, and the controller exits at the
        first stage whose (noisy) confidence clears the threshold.

        Parameters
        ----------
        difficulty:
            Latent difficulty of the request in ``[0, 1]``.
        stage_accuracies:
            Non-decreasing per-stage exit accuracies.
        rng:
            Random generator for the confidence noise; ``None`` uses the
            controller's own stream.
        """
        check_fraction(difficulty, "difficulty")
        accuracies = self._validated_accuracies(stage_accuracies)
        stages, correct = self.decide_many([difficulty], accuracies, rng=rng)
        stage, right = int(stages[0]), bool(correct[0])
        return ExitDecision(
            stage=stage,
            correct=right,
            premature=stage < len(accuracies) - 1 and not right,
            escalated=any(difficulty <= accuracy for accuracy in accuracies[:stage]),
        )

    def decide_many(
        self,
        difficulties: Sequence[float],
        stage_accuracies: Sequence[float],
        rng: "np.random.Generator | None" = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Decide the terminating stage of a sequence of requests.

        Equivalent to one :meth:`decide` call per difficulty, in order, on
        the same generator: the same exits, and the generator ends in the
        same state.  A request exiting at ``stage`` of ``S`` draws one
        confidence-noise sample per non-final stage it visits, i.e.
        ``min(stage + 1, S - 1)`` normals.

        Parameters
        ----------
        difficulties:
            Latent difficulties of the requests, each in ``[0, 1]``.
        stage_accuracies:
            Non-decreasing per-stage exit accuracies.
        rng:
            Random generator for the confidence noise; ``None`` uses the
            controller's own stream.

        Returns
        -------
        ``(stages, correct)``: per request, the terminating stage index and
        whether that exit's prediction is right.
        """
        accuracies = np.array(self._validated_accuracies(stage_accuracies))
        difficulty = np.asarray(difficulties, dtype=float).reshape(-1)
        if not np.all((difficulty >= 0.0) & (difficulty <= 1.0)):
            raise ConfigurationError("difficulties must lie in [0, 1]")
        generator = self._rng if rng is None else as_rng(rng)
        # classifiable[i, s]: stage s classifies request i correctly.
        classifiable = difficulty[:, None] <= accuracies
        last = accuracies.size - 1
        if last == 0:  # a single stage always exits there and draws nothing
            stages = np.zeros(difficulty.size, dtype=int)
        elif self.confidence_noise == 0.0:
            # Noise-free confidences do not depend on the draws, so the
            # decisions are one array pass and the draws only advance the
            # stream by their total count.
            exits_here = (
                self._confidence(classifiable[:, :last], np.zeros((difficulty.size, last)))
                >= self.threshold
            )
            stages = np.where(exits_here.any(axis=1), exits_here.argmax(axis=1), last)
            draws = int(np.minimum(stages + 1, last).sum())
            generator.normal(0.0, self.confidence_noise, size=draws)
        else:
            stages = self._walk_noisy_exits(classifiable, generator)
        return stages, classifiable[np.arange(difficulty.size), stages]

    def _walk_noisy_exits(
        self, classifiable: np.ndarray, generator: np.random.Generator
    ) -> np.ndarray:
        """Sequential exit walk under confidence noise, drawing in batches.

        Request ``i`` consumes its noise after request ``i - 1``, so the walk
        is sequential.  Every undecided request still draws at least once,
        so a batch of one sample per undecided request never draws more
        than the per-request calls would: the generator ends exactly where
        sequential :meth:`decide` calls leave it.
        """
        count, num_stages = classifiable.shape
        last = num_stages - 1
        stages = np.full(count, last)
        rows = classifiable[:, :last].tolist()
        request, stage = 0, 0
        while request < count:
            noise = generator.normal(0.0, self.confidence_noise, size=count - request)
            passes = {
                right: (
                    self._confidence(np.full(noise.size, right), noise) >= self.threshold
                ).tolist()
                for right in (True, False)
            }
            for draw in range(noise.size):
                if passes[rows[request][stage]][draw]:
                    stages[request] = stage
                    request, stage = request + 1, 0
                else:
                    stage += 1
                    if stage == last:
                        request, stage = request + 1, 0
        return stages

    def simulate(
        self,
        stage_accuracies: Sequence[float],
        profile: HardwareProfile,
        num_samples: int = 5000,
    ) -> ControllerResult:
        """Simulate the controller over a synthetic validation population.

        Parameters
        ----------
        stage_accuracies:
            Non-decreasing per-stage exit accuracies (from
            :class:`~repro.dynamics.accuracy.AccuracyModel`).
        profile:
            Hardware characterisation of the same dynamic network, providing
            cumulative latency/energy per terminating stage.
        num_samples:
            Monte-Carlo population size.
        """
        accuracies = self._validated_accuracies(stage_accuracies)
        if profile.num_stages != len(accuracies):
            raise ConfigurationError(
                f"profile has {profile.num_stages} stages but {len(accuracies)} accuracies given"
            )
        if num_samples < 1:
            raise ConfigurationError("num_samples must be >= 1")

        num_stages = len(accuracies)
        # Latent difficulty per sample: a sample is classifiable by stage i
        # iff difficulty <= accuracies[i].  Uniform difficulties reproduce the
        # ideal N_i counts in expectation.
        difficulty = self._rng.random(num_samples)

        exits = np.full(num_samples, num_stages - 1, dtype=int)
        correct = np.zeros(num_samples, dtype=bool)
        premature = np.zeros(num_samples, dtype=bool)
        escalated = np.zeros(num_samples, dtype=bool)

        still_running = np.ones(num_samples, dtype=bool)
        for stage_index, stage_accuracy in enumerate(accuracies):
            is_last = stage_index == num_stages - 1
            active = np.where(still_running)[0]
            if active.size == 0:
                break
            correct_here = difficulty[active] <= stage_accuracy
            confidence = self._confidence(
                correct_here,
                self._rng.normal(0.0, self.confidence_noise, size=correct_here.size),
            )
            exit_now = confidence >= self.threshold if not is_last else np.ones_like(correct_here)
            exiting = active[exit_now]
            exits[exiting] = stage_index
            correct[exiting] = correct_here[exit_now]
            if not is_last:
                # Confidently wrong: the ideal mapping would have escalated.
                premature[exiting] |= ~correct_here[exit_now]
                # Correct but under-confident: pays for extra stages.
                staying = active[~exit_now]
                escalated[staying] |= difficulty[staying] <= stage_accuracy
            still_running[exiting] = False

        exit_fractions = np.bincount(exits, minlength=num_stages) / num_samples
        expected_latency = float(
            sum(
                fraction * profile.cumulative_latency_ms(stage)
                for stage, fraction in enumerate(exit_fractions)
            )
        )
        expected_energy = float(
            sum(
                fraction * profile.cumulative_energy_mj(stage)
                for stage, fraction in enumerate(exit_fractions)
            )
        )
        return ControllerResult(
            accuracy=float(correct.mean()),
            exit_fractions=tuple(float(f) for f in exit_fractions),
            expected_stages=float((exits + 1).mean()),
            expected_latency_ms=expected_latency,
            expected_energy_mj=expected_energy,
            premature_exit_fraction=float(premature.mean()),
            escalation_fraction=float(escalated.mean()),
            num_samples=int(num_samples),
        )
