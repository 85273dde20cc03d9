"""Knowledge-selection relation extraction.

A self-contained pipeline for document-level protein-pair relation
extraction: candidate-instance preprocessing, TransE knowledge-base
embeddings, entity-conditioned Transformer encoders with mutual-attention
pooling and a gated knowledge selector, trained with Adadelta on a
from-scratch reverse-mode autodiff engine, and scored with micro-averaged
exact-match P/R/F.
"""

from .autodiff import ParameterStore, Tensor, backward
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import (CandidateInstance, Document, Mention, PreprocessConfig,
                     assign_labels, build_context_window,
                     generate_candidate_pairs, preprocess_document,
                     read_corpus, read_instances, write_corpus,
                     write_instances)
from .inputs import InputError
from .kb import (KnowledgeStore, PairKnowledge, Triple, init_embeddings,
                 read_triples, resolve_pair_knowledge, transe_energy,
                 transe_train)
from .model import (KSMModel, ModelConfig, WordTable, classify,
                    embed_context, knowledge_select, mutual_attention,
                    nll_loss, pool_variants, sinusoidal_encoding)
from .optim import Adadelta
from .train import (InstancePrediction, TrainConfig, aggregate_predictions,
                    micro_prf, predict_instances, prf_from_counts,
                    train_model)

__version__ = "0.1.0"

__all__ = [
    "Adadelta", "CandidateInstance", "Document", "InputError",
    "InstancePrediction", "KSMModel", "KnowledgeStore", "Mention",
    "ModelConfig", "PairKnowledge", "ParameterStore", "PreprocessConfig",
    "Tensor", "TrainConfig", "Triple", "WordTable", "aggregate_predictions",
    "assign_labels", "backward", "build_context_window", "classify",
    "embed_context", "generate_candidate_pairs", "init_embeddings",
    "knowledge_select", "load_checkpoint", "micro_prf",
    "mutual_attention", "nll_loss", "pool_variants", "predict_instances",
    "preprocess_document", "prf_from_counts", "read_corpus",
    "read_instances", "read_triples", "resolve_pair_knowledge",
    "save_checkpoint", "sinusoidal_encoding", "train_model",
    "transe_energy", "transe_train", "write_corpus", "write_instances",
]
