"""Directed-graph state space modeling toolkit.

Graph containers and algorithms, a diagonal SSM kernel with a hop-indexed
power table, a minimal reverse-mode tensor engine, the attention-selective
message-passing scan model, and a training harness with oracle-equivalence
suites.
"""

from .algos import (
    CondensationDag,
    PreprocessArtifacts,
    SccPartition,
    compute_artifacts,
    condense,
    dag_depth,
    depth_plus,
    dir_ego2token,
    k_hop_predecessors,
    pagerank,
    tarjan_scc,
)
from .autodiff import ParameterSet, Tensor
from .graphs import (
    DiGraph,
    GraphBatch,
    batch_graphs,
    load_graphs,
    reverse_graph,
    save_graphs,
    unbatch_graphs,
)
from .model import (
    ModelConfig,
    depth_positional_encoding,
    digraph_fusion_attention,
    digraph_ssm_scan,
    dir_gated_gcn,
    dirgraphssm_layer,
    encode_inputs,
    init_weights,
    load_model,
    model_forward,
    model_loss,
    save_model,
)
from .optim import AdamW, grad_check, grad_check_params
from .rng import RngStream
from .ssm import SSMParams, discretize, hop_powers, init_s4d, kernel_table, ssm_scan_reference
from .stats import StatsReport, compute_stats
from .synth import SyntheticTaskSpec, gen_synthetic
from .train import RunConfig, evaluate, evaluate_checkpoint, train

__version__ = "0.1.0"
