"""Which end-to-end metric, on which workload, each per-layer metric should move.

Span times (`<module>.<function>.s`) are self time in CPU seconds summed
over one round (one pass over the workload's commands in fresh processes),
except where the text says "per step".  A function the workload's commands
never call is timed, and its nodes counted, as one call in the layer units
(units.py) instead.  Node and array counts are per call or per training step
and must repeat exactly between steps and between runs.
"""

ALL = "every workload"

MOVES = {
    "autodiff.backward.s": "self time per training step (mle_fit's calls excluded); "
                           "train_steps_per_s on " + ALL
                           + ", most in relative terms on readme_tour",
    "autodiff.tape_nodes": "nodes on the tape when a training step's backward starts; "
                           "train_steps_per_s on " + ALL,
    "autodiff.grad_nodes": "nodes a training step's backward appends; train_steps_per_s on " + ALL,
    "network.log_jacobian_nodes.s": "train_steps_per_s and peak_rss_mb on cifar_mass and "
                                    "readme_tour; no change on cifar_mass_beta0 or cifar_softmaxce",
    "network.log_jacobian_nodes.nodes": "per call; as network.log_jacobian_nodes.s",
    "network.forward_nodes.s": "train_steps_per_s on cifar_softmaxce and cifar_mass_beta0",
    "network.forward_fast.s": "eval_samples_per_s and ood_samples_per_s on cifar_mass_beta0",
    "network.jacobian_batch.s": "curve rows; train_steps_per_s on cifar_mass_beta0",
    "mixtures.density_nodes.s": "train_steps_per_s on cifar_mass_beta0 and cifar_softmaxce",
    "mixtures.density_nodes.nodes": "per call; train_steps_per_s on cifar_mass_beta0",
    "mixtures.mle_fit.s": "train_steps_per_s on cifar_softmaxce",
    "mixtures.class_log_density_matrix.s": "eval_samples_per_s and ood_samples_per_s on "
                                           "cifar_mass_beta0",
    "training.minibatch_loss.p50_s": "median step loss span; train_steps_per_s on " + ALL,
    "training.minibatch_loss.tail_s": "loss span at training.minibatch_loss.tail_pct; "
                                      "train_steps_per_s on " + ALL,
    "training.minibatch_loss.tail_pct": "highest percentile with at least ten samples beyond "
                                        "it (100 = the maximum, when there are fewer than 20)",
    "training.minibatch_loss.samples": "loss spans behind the two percentiles",
    "optim.adam_step.s": "train_steps_per_s on cifar_mass_beta0",
    "optim.clip_global_norm.s": "train_steps_per_s on cifar_mass_beta0",
    "optim.arrays": "arrays Adam updates per training step; train_steps_per_s on cifar_mass_beta0",
    "cdi.knn_entropy.s": "cdi_demo_s on " + ALL,
    "cdi.knn_entropy.calls": "per round; cdi_demo_s on " + ALL,
    "metrics.ood_scores.s": "ood_samples_per_s on " + ALL,
    "metrics.auroc.s": "ood_samples_per_s on " + ALL,
    "metrics.average_precision_ood.s": "ood_samples_per_s on " + ALL,
    "checkpoint.save_checkpoint.s": "train_steps_per_s on " + ALL,
    "checkpoint.load_checkpoint.s": "setup_s on " + ALL,
    "cli.parse_dataset_spec.s": "setup_s on " + ALL + ", most on cifar_mass_beta0",
    "data.batch_iterator.s": "train_steps_per_s on " + ALL,
    "process.import_s": "setup_s on " + ALL + ", most in relative terms on readme_tour",
    "process.gc_pause_s": "cyclic GC pause during train, per step; peak_rss_mb and "
                          "train_steps_per_s on cifar_mass",
    "process.rss_mb_after_step": "largest resident set after a training step; peak_rss_mb "
                                 "and train_steps_per_s on cifar_mass",
    "unit.network_fb.s": "train_steps_per_s on cifar_softmaxce and cifar_mass_beta0",
    "unit.mixture_fb.s": "train_steps_per_s on cifar_mass_beta0 and cifar_softmaxce",
    "unit.volume_fb.s": "train_steps_per_s on cifar_mass and readme_tour",
    "unit.optimizer.s": "train_steps_per_s on cifar_mass_beta0",
    "unit.knn_entropy.s": "cdi_demo_s on " + ALL,
}
