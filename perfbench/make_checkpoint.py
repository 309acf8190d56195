"""Train the frozen ``rl`` checkpoint that the ``compile`` workload loads.

Training speed and training noise must not leak into ``compile``, so the
policy it sweeps with is trained once, here, and committed.  Re-running this
script with the recorded configuration reproduces the checkpoint exactly
(PPO and the environments are seeded; nothing depends on wall time)::

    python3 perfbench/make_checkpoint.py

It writes ``perfbench/rl_checkpoint.json`` (``Predictor.save`` format) and
``perfbench/rl_checkpoint.meta.json`` (the configuration and the training
summary).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, family_widths, import_program  # noqa: E402

CHECKPOINT = Path(__file__).resolve().parent / "rl_checkpoint.json"
META = CHECKPOINT.with_suffix(".meta.json")

#: the recorded training configuration
CONFIG = {
    "reward": "fidelity",
    "seed": 0,
    "n_envs": 2,
    "total_timesteps": 16384,
    "suite_min_width": 2,
    "suite_max_width": 6,
}


def main() -> int:
    import_program()
    import repro

    suite = [
        repro.benchmark_circuit(family, width)
        for family, width in family_widths(CONFIG["suite_min_width"], CONFIG["suite_max_width"])
    ]
    predictor = repro.Predictor(
        reward=CONFIG["reward"], n_envs=CONFIG["n_envs"], seed=CONFIG["seed"]
    )
    start = time.perf_counter()
    summary = predictor.train(suite, total_timesteps=CONFIG["total_timesteps"])
    elapsed = time.perf_counter() - start
    predictor.save(CHECKPOINT)
    META.write_text(
        json.dumps(
            {
                "config": CONFIG,
                "training_circuits": len(suite),
                "summary": {
                    "total_timesteps": summary.total_timesteps,
                    "episodes": summary.episodes,
                    "mean_episode_reward": summary.mean_episode_reward,
                    "mean_episode_length": summary.mean_episode_length,
                },
            },
            indent=2,
        )
        + "\n"
    )
    print(
        f"trained {summary.total_timesteps} steps in {elapsed:.1f} s; "
        f"final mean reward {summary.mean_episode_reward:.4f}; wrote "
        f"{CHECKPOINT.relative_to(ROOT) if CHECKPOINT.is_relative_to(ROOT) else CHECKPOINT}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
