"""Causal cooperative game framework for multi-label classification:
Neural-SEM label prediction, learnable label causal graph, player
decomposition with causal masks, counterfactual curiosity rewards, causal
invariance losses, imbalance-aware training, and a planted-world synthetic
benchmark."""

from .data import (Dataset, LabelStats, PlantedWorld, co_occurrence,
                   compute_label_stats, generate_synthetic, load_dataset,
                   save_dataset, semantic_similarity)
from .evaluation import (MetricsReport, average_precision, evaluate,
                         mean_average_precision, rare_f1, structure_score)
from .graph import (CausalGraph, export_dot, extract_graph, graph_loss,
                    ideal_weights)
from .invariance import contrastive_inv_loss, make_env_views_batch
from .players import (MaskSet, PlayerEncoder, build_masks, partition_labels,
                      player_encoders)
from .reward import anneal, curiosity_surrogate, generate_counterfactual
from .sem import SemModel, init_model, predict_batch
from .training import (ObjectiveSpec, TrainConfig, TrainResult, alpha_weights,
                       composite_value_and_grads, train, weighted_ce)

__version__ = "0.1.0"
